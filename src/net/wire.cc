#include "src/net/wire.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "src/common/strings.h"

namespace perfiface::net {

namespace {

// Nesting cap: hostile "[[[[..." input must not blow the reader's stack.
constexpr int kMaxDepth = 64;

// The one JSON reader of the wire: a cursor over one frame that checks the
// syntax of every value it passes and decodes only what a caller asks for,
// so no tree is built. Each value at nesting `depth` is read by exactly one
// of ReadScalar, ReadObject, ReadArray or SkipValue. A syntax error stops
// the read; error() then holds "<what> at byte <offset>", the first error
// in text order.
class JsonReader {
 public:
  // A string, number or boolean, decoded; null, objects and arrays are
  // checked and skipped as kOther.
  struct Scalar {
    enum class Kind { kString, kNumber, kBool, kOther };
    Kind kind = Kind::kOther;
    std::string str;
    std::string_view raw;  // a number's text, read again by the integer fields
    double number = 0;
    bool boolean = false;
  };

  explicit JsonReader(std::string_view text) : text_(text) {}

  const std::string& error() const { return error_; }

  // The whole text is one value, read by read_root() from its first byte,
  // followed by whitespace only.
  template <typename ReadRoot>
  bool Document(ReadRoot&& read_root) {
    SkipWs();
    if (!read_root()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size() || Fail("trailing garbage after JSON document");
  }

  // Whether the value at the cursor starts with `c` ('{' or '[').
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  // The string at the cursor (At('"')), unescaped into *out.
  bool ReadString(int depth, std::string* out) { return BeginValue(depth) && ReadString(out); }

  bool ReadScalar(int depth, Scalar* out) {
    if (!BeginValue(depth)) {
      return false;
    }
    switch (text_[pos_]) {
      case '"':
        out->kind = Scalar::Kind::kString;
        return ReadString(&out->str);
      case 't':
      case 'f':
        out->kind = Scalar::Kind::kBool;
        return ReadBool(&out->boolean);
      case '{':
      case '[':
      case 'n':
        out->kind = Scalar::Kind::kOther;
        return SkipValue(depth);
      default:
        out->kind = Scalar::Kind::kNumber;
        return ReadNumber(&out->raw, &out->number);
    }
  }

  // The object at the cursor (At('{')): on_member(key, depth + 1) must read
  // each member's value, and may take the key's buffer.
  template <typename OnMember>
  bool ReadObject(int depth, OnMember&& on_member) {
    if (!BeginValue(depth)) {
      return false;
    }
    ++pos_;  // '{'
    SkipWs();
    if (At('}')) {
      ++pos_;
      return true;
    }
    std::string key;
    for (;;) {
      SkipWs();
      if (!At('"')) {
        return Fail("expected object key");
      }
      if (!ReadString(&key)) {
        return false;
      }
      SkipWs();
      if (!At(':')) {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      if (!on_member(key, depth + 1)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  // The array at the cursor (At('[')): on_item(depth + 1) must read each
  // element.
  template <typename OnItem>
  bool ReadArray(int depth, OnItem&& on_item) {
    if (!BeginValue(depth)) {
      return false;
    }
    ++pos_;  // '['
    SkipWs();
    if (At(']')) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!on_item(depth + 1)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool SkipValue(int depth) {
    if (!BeginValue(depth)) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return ReadObject(depth, [this](std::string&, int d) { return SkipValue(d); });
      case '[': return ReadArray(depth, [this](int d) { return SkipValue(d); });
      case '"': return ReadString(nullptr);
      case 't':
      case 'f': {
        bool ignored = false;
        return ReadBool(&ignored);
      }
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return true;
        }
        return Fail("bad literal");
      default: {
        std::string_view raw;
        double ignored = 0;
        return ReadNumber(&raw, &ignored);
      }
    }
  }

 private:
  bool Fail(const char* msg) {
    if (error_.empty()) {
      error_ = msg;
      error_ += " at byte ";
      error_ += std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  // The checks every value starts with, nesting before end of input.
  bool BeginValue(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    return pos_ < text_.size() || Fail("unexpected end of input");
  }

  // The string at the cursor, unescaped into *out (skipped when null).
  bool ReadString(std::string* out) {
    ++pos_;  // opening quote
    if (out != nullptr) {
      out->clear();
    }
    for (;;) {
      std::size_t run = pos_;
      while (run < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[run]);
        if (c == '"' || c == '\\' || c < 0x20) {
          break;
        }
        ++run;
      }
      if (out != nullptr) {
        out->append(text_.data() + pos_, run - pos_);
      }
      pos_ = run;
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      if (text_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != '\\') {
        return Fail("unescaped control character in string");
      }
      if (pos_ + 1 >= text_.size()) {
        return Fail("truncated escape");
      }
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      char byte = 0;
      switch (esc) {
        case '"': byte = '"'; break;
        case '\\': byte = '\\'; break;
        case '/': byte = '/'; break;
        case 'b': byte = '\b'; break;
        case 'f': byte = '\f'; break;
        case 'n': byte = '\n'; break;
        case 'r': byte = '\r'; break;
        case 't': byte = '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!ReadHex4(&code)) {
            return false;
          }
          if (out != nullptr) {
            AppendUtf8(out, code);
          }
          continue;
        }
        default: return Fail("unknown escape");
      }
      if (out != nullptr) {
        out->push_back(byte);
      }
    }
  }

  bool ReadHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  // Encodes a BMP code point as UTF-8. Surrogates are passed through as-is
  // (the wire never emits them; replacement would be equally fine).
  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ReadBool(bool* out) {
    if (text_.substr(pos_, 4) == "true") {
      *out = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      *out = false;
      pos_ += 5;
      return true;
    }
    return Fail("bad literal");
  }

  // A number is the longest run of sign, digit, '.' and exponent bytes,
  // which must be one ParseDecimal number: finite, and decimal by
  // construction (no byte of "0x", "inf" or "nan" can join the run).
  bool ReadNumber(std::string_view* raw, double* out) {
    const std::size_t start = pos_;
    if (At('-')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
            c == '-')) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    *raw = text_.substr(start, pos_ - start);
    const std::errc ec = ParseDecimal(*raw, out);
    if (ec == std::errc::result_out_of_range) {
      // Past the double range a number would decode to +-inf, which no
      // JSON encoder (ours included) can write back.
      return Fail("number out of range");
    }
    return ec == std::errc() || Fail("bad number");
  }

  std::string_view text_;
  std::string error_;
  std::size_t pos_ = 0;
};

using Scalar = JsonReader::Scalar;

// Integer fields are read off the number's raw text, never through double,
// so values near INT64_MAX round-trip exactly.
template <typename Int>
bool ScalarToInt(const Scalar& v, Int* out) {
  return v.kind == Scalar::Kind::kNumber && ParseDecimal(v.raw, out) == std::errc();
}

// Number formatting for the encoders, appended in place through std::to_chars.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[20];  // INT64_MIN and UINT64_MAX both print in 20
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

// 17 significant digits in general form: the bytes "%.17g" prints, and
// they round-trip every double.
void AppendDouble(std::string* out, double v) {
  char buf[32];  // the longest, "-2.2250738585072014e-308", is 24
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

const char* RepresentationName(serve::Representation rep) {
  switch (rep) {
    case serve::Representation::kAuto: return "auto";
    case serve::Representation::kProgram: return "program";
    case serve::Representation::kPnet: return "pnet";
  }
  return "auto";
}

bool RepresentationFromName(std::string_view name, serve::Representation* out) {
  if (name == "auto") {
    *out = serve::Representation::kAuto;
  } else if (name == "program") {
    *out = serve::Representation::kProgram;
  } else if (name == "pnet") {
    *out = serve::Representation::kPnet;
  } else {
    return false;
  }
  return true;
}

void AppendRequestJson(const serve::PredictRequest& req, std::string* out) {
  *out += "{\"interface\":";
  AppendJsonString(out, req.interface);
  *out += ",\"rep\":\"";
  *out += RepresentationName(req.representation);
  *out += '"';
  if (!req.function.empty()) {
    *out += ",\"function\":";
    AppendJsonString(out, req.function);
  }
  if (!req.attrs.empty()) {
    *out += ",\"attrs\":{";
    for (std::size_t i = 0; i < req.attrs.size(); ++i) {
      if (i > 0) {
        *out += ',';
      }
      AppendJsonString(out, req.attrs[i].first);
      *out += ':';
      AppendDouble(out, req.attrs[i].second);
    }
    *out += '}';
  }
  if (req.children != 0) {
    *out += ",\"children\":";
    AppendInt(out, req.children);
  }
  if (!req.entry_place.empty()) {
    *out += ",\"entry_place\":";
    AppendJsonString(out, req.entry_place);
  }
  if (req.tokens != 1) {
    *out += ",\"tokens\":";
    AppendInt(out, req.tokens);
  }
  if (req.max_steps != 0) {
    *out += ",\"max_steps\":";
    AppendInt(out, req.max_steps);
  }
  if (req.deadline_us != 0) {
    *out += ",\"deadline_us\":";
    AppendInt(out, req.deadline_us);
  }
  if (!req.trace_id.empty()) {
    *out += ",\"trace_id\":";
    AppendJsonString(out, req.trace_id);
  }
  if (req.explain) {
    *out += ",\"explain\":true";
  }
  if (!req.tenant.empty()) {
    *out += ",\"tenant\":";
    AppendJsonString(out, req.tenant);
  }
  *out += '}';
}

// A request object's fields, in the order their errors are reported: of
// several bad fields the first in this order is named, wherever it stands
// in the object.
enum RequestField {
  kInterface,
  kRep,
  kFunction,
  kAttrs,
  kChildren,
  kEntryPlace,
  kTokens,
  kMaxSteps,
  kDeadlineUs,
  kTraceId,
  kExplain,
  kTenant,
  kNumRequestFields,
  kUnknownField = kNumRequestFields,
};

constexpr struct {
  std::string_view name;
  const char* error;
} kRequestFields[kNumRequestFields] = {
    {"interface", "request needs a non-empty string 'interface'"},
    {"rep", "'rep' must be \"auto\", \"program\", or \"pnet\""},
    {"function", "'function' must be a string"},
    {"attrs", "'attrs' must be an object of numbers"},
    {"children", "'children' must be an integer in [0, 1000000]"},
    {"entry_place", "'entry_place' must be a string"},
    {"tokens", "'tokens' must be an integer in [1, 1e9]"},
    {"max_steps", "'max_steps' must be a non-negative integer"},
    {"deadline_us", "'deadline_us' must be a non-negative integer"},
    {"trace_id", "'trace_id' must be a string of at most 128 bytes"},
    {"explain", "'explain' must be a boolean"},
    {"tenant", "'tenant' must be a string of at most 64 bytes"},
};

RequestField RequestFieldOf(std::string_view key) {
  for (int f = 0; f < kNumRequestFields; ++f) {
    if (key == kRequestFields[f].name) {
      return static_cast<RequestField>(f);
    }
  }
  return kUnknownField;
}

// Stands in for an attribute whose value is not a number: ParseDecimal
// reads finite numbers only.
constexpr double kNotANumber = std::numeric_limits<double>::quiet_NaN();

// Where a string field is stored and how many bytes it may hold; a null
// `text` for the other fields. Strings are read straight into the request,
// so a reused request keeps their storage.
struct StringSlot {
  std::string* text = nullptr;
  std::size_t min = 0;
  std::size_t max = 0;
};

StringSlot StringSlotOf(RequestField field, serve::PredictRequest* req) {
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
  switch (field) {
    case kInterface: return {&req->interface, 1, kUnbounded};
    case kFunction: return {&req->function, 0, kUnbounded};
    case kEntryPlace: return {&req->entry_place, 0, kUnbounded};
    // Bounded: the trace id is echoed into every span and response line,
    // and the tenant into responses and a metrics label, so a hostile
    // client must not get to inflate them arbitrarily.
    case kTraceId: return {&req->trace_id, 0, 128};
    case kTenant: return {&req->tenant, 0, 64};
    default: return {};
  }
}

// Whether the value of a non-string `field`'s occurrence is acceptable; a
// good one is stored into *req.
bool TakeRequestField(RequestField field, const Scalar& v, serve::PredictRequest* req) {
  const auto take_int = [&v](int* out, std::int64_t min, std::int64_t max) {
    std::int64_t n = 0;
    if (!ScalarToInt(v, &n) || n < min || n > max) {
      return false;
    }
    *out = static_cast<int>(n);
    return true;
  };
  switch (field) {
    case kRep:
      return v.kind == Scalar::Kind::kString &&
             RepresentationFromName(v.str, &req->representation);
    case kChildren: return take_int(&req->children, 0, 1'000'000);
    case kTokens: return take_int(&req->tokens, 1, 1'000'000'000);
    case kMaxSteps: return ScalarToInt(v, &req->max_steps);
    case kDeadlineUs: return ScalarToInt(v, &req->deadline_us) && req->deadline_us >= 0;
    case kExplain:
      if (v.kind != Scalar::Kind::kBool) {
        return false;
      }
      req->explain = v.boolean;
      return true;
    default: return false;
  }
}

// Restores every field of *req to its default, keeping the storage of its
// strings and attrs for the decode that refills it. A field added to
// PredictRequest must be reset here: WireFuzz decodes into requests left
// over from other frames and compares every field with the oracle.
void ResetRequest(serve::PredictRequest* req) {
  req->interface.clear();
  req->representation = serve::Representation::kAuto;
  req->function.clear();
  req->attrs.clear();
  req->children = 0;
  req->entry_place.clear();
  req->tokens = 1;
  req->max_steps = 0;
  req->deadline_us = 0;
  req->trace_id.clear();
  req->explain = false;
  req->tenant.clear();
}

// JSON objects are unordered: attrs come out sorted by name, and of a name
// given twice the last value stands.
void SortAttrs(std::vector<std::pair<std::string, double>>* attrs) {
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (std::adjacent_find(attrs->begin(), attrs->end(), [](const auto& a, const auto& b) {
        return a.first >= b.first;
      }) == attrs->end()) {
    return;  // already sorted, no name twice
  }
  // A request's few attributes are insertion-sorted, which is stable like
  // std::stable_sort but needs no buffer; long lists take the n log n sort.
  constexpr std::size_t kInsertionSortMax = 32;
  if (attrs->size() <= kInsertionSortMax) {
    for (auto it = attrs->begin() + 1; it != attrs->end(); ++it) {
      std::rotate(std::upper_bound(attrs->begin(), it, *it, by_name), it, it + 1);
    }
  } else {
    std::stable_sort(attrs->begin(), attrs->end(), by_name);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < attrs->size(); ++i) {
    if (i + 1 < attrs->size() && (*attrs)[i + 1].first == (*attrs)[i].first) {
      continue;
    }
    if (out != i) {
      (*attrs)[out] = std::move((*attrs)[i]);
    }
    ++out;
  }
  attrs->resize(out);
}

// A field's last occurrence in an object, if any, and whether it was good.
enum class Seen : unsigned char { kAbsent, kGood, kBad };

// Reads the request object at the cursor into *req. A field given twice
// counts at its last occurrence. Returns false on a syntax error; a bad
// field sets *field_error instead (the first bad field in RequestField
// order), and then *req is not a request.
bool ReadRequest(JsonReader* reader, int depth, serve::PredictRequest* req,
                 std::string* field_error) {
  Seen seen[kNumRequestFields] = {};
  Scalar v;
  const bool read = reader->ReadObject(depth, [&](std::string& key, int d) {
    const RequestField field = RequestFieldOf(key);
    if (field == kUnknownField) {
      return reader->SkipValue(d);
    }
    if (field == kAttrs) {
      req->attrs.clear();
      if (!reader->At('{')) {
        seen[kAttrs] = Seen::kBad;
        return reader->SkipValue(d);
      }
      seen[kAttrs] = Seen::kGood;
      return reader->ReadObject(d, [&](std::string& name, int vd) {
        if (!reader->ReadScalar(vd, &v)) {
          return false;
        }
        req->attrs.emplace_back(name, v.kind == Scalar::Kind::kNumber ? v.number : kNotANumber);
        return true;
      });
    }
    if (const StringSlot slot = StringSlotOf(field, req); slot.text != nullptr) {
      if (!reader->At('"')) {
        seen[field] = Seen::kBad;
        return reader->SkipValue(d);
      }
      if (!reader->ReadString(d, slot.text)) {
        return false;
      }
      const std::size_t size = slot.text->size();
      seen[field] = size >= slot.min && size <= slot.max ? Seen::kGood : Seen::kBad;
      return true;
    }
    if (!reader->ReadScalar(d, &v)) {
      return false;
    }
    seen[field] = TakeRequestField(field, v, req) ? Seen::kGood : Seen::kBad;
    return true;
  });
  if (!read) {
    return false;
  }
  SortAttrs(&req->attrs);
  for (int f = 0; f < kNumRequestFields; ++f) {
    if (seen[f] == Seen::kBad || (f == kInterface && seen[f] == Seen::kAbsent)) {
      *field_error = kRequestFields[f].error;
      return true;
    }
    if (f != kAttrs) {
      continue;
    }
    for (const auto& [name, value] : req->attrs) {
      if (std::isnan(value)) {
        // The name ends at a NUL byte, as it always has in this message.
        *field_error = "attr '";
        *field_error += name.c_str();
        *field_error += "' must be a number";
        return true;
      }
    }
  }
  return true;
}

}  // namespace

void FrameReader::Append(const char* data, std::size_t n) {
  // Compact once per Append: popped frames only advance head_, so a read
  // holding hundreds of lines costs one move here, not one per Pop.
  buffer_.erase(0, head_);
  scan_from_ -= head_;
  head_ = 0;
  if (!skipping_) {
    buffer_.append(data, n);
    return;
  }
  // Discarding an oversized frame: keep only what follows its newline.
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] == '\n') {
      skipping_ = false;
      report_oversized_ = true;
      buffer_.append(data + i + 1, n - i - 1);
      return;
    }
  }
}

FrameReader::Next FrameReader::Pop(std::string* frame) {
  frame->clear();
  if (report_oversized_) {
    report_oversized_ = false;
    return Next::kOversized;
  }
  const std::size_t nl = buffer_.find('\n', scan_from_);
  if (nl == std::string::npos) {
    scan_from_ = buffer_.size();
    // One byte of headroom when the buffer ends in '\r': it may be the CR
    // of a CRLF terminator for a frame of exactly max_frame_bytes, which
    // must not be dropped (the CR is framing, not payload).
    const std::size_t pending = buffered();
    const std::size_t limit =
        max_frame_bytes_ + (pending > 0 && buffer_.back() == '\r' ? 1 : 0);
    if (pending > limit) {
      // The frame is already too long even though its newline has not
      // arrived; switch to skip mode so the buffer cannot grow unbounded.
      buffer_.clear();
      head_ = 0;
      scan_from_ = 0;
      skipping_ = true;
    }
    return Next::kNeedMore;
  }
  const std::size_t start = head_;
  head_ = nl + 1;
  scan_from_ = head_;
  // The size limit applies to the frame *content*: a trailing '\r' is
  // framing, not payload, so it must be excluded before the check — or a
  // CRLF client's frame of exactly max_frame_bytes would be rejected as
  // oversized while the same bytes over LF pass.
  const std::size_t len = nl - start;
  const std::size_t content = len > 0 && buffer_[nl - 1] == '\r' ? len - 1 : len;
  if (content > max_frame_bytes_) {
    return Next::kOversized;
  }
  // Tolerate CRLF framing from line-oriented clients (telnet, printf).
  frame->assign(buffer_, start, content);
  return Next::kFrame;
}

void EncodeRequestFrame(std::uint64_t id, const std::vector<serve::PredictRequest>& requests,
                        std::string* out) {
  *out += "{\"id\":";
  AppendInt(out, id);
  *out += ",\"requests\":[";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) {
      *out += ',';
    }
    AppendRequestJson(requests[i], out);
  }
  *out += "]}\n";
}

bool DecodeRequestFrame(std::string_view frame, std::uint64_t* id,
                        std::vector<serve::PredictRequest>* requests, std::string* error) {
  *id = 0;
  error->clear();
  JsonReader reader(frame);
  // The last "id" and "requests" members; requests past the first bad one
  // are checked for syntax only. The first `decoded` elements of *requests
  // are this frame's; the rest are storage left from an earlier decode,
  // which each request is decoded into before the vector grows.
  bool object = false;
  Seen id_seen = Seen::kAbsent;
  std::uint64_t id_value = 0;
  enum class Shape { kAbsent, kObject, kArray, kOther } shape = Shape::kAbsent;
  std::size_t count = 0;
  std::size_t decoded = 0;
  std::size_t bad_index = 0;
  std::string item_error;
  Scalar v;
  const auto read_item = [&](int depth) {
    const std::size_t index = count++;
    if (!item_error.empty()) {
      return reader.SkipValue(depth);
    }
    bad_index = index;
    if (!reader.At('{')) {
      item_error = "request must be a JSON object";
      return reader.SkipValue(depth);
    }
    serve::PredictRequest& request =
        decoded < requests->size() ? (*requests)[decoded] : requests->emplace_back();
    ResetRequest(&request);
    if (!ReadRequest(&reader, depth, &request, &item_error)) {
      return false;
    }
    if (item_error.empty()) {
      ++decoded;
    }
    return true;
  };
  const bool parsed = reader.Document([&] {
    if (!reader.At('{')) {
      return reader.SkipValue(0);
    }
    object = true;
    return reader.ReadObject(0, [&](std::string& key, int depth) {
      if (key == "id") {
        if (!reader.ReadScalar(depth, &v)) {
          return false;
        }
        id_seen = ScalarToInt(v, &id_value) ? Seen::kGood : Seen::kBad;
        return true;
      }
      if (key != "requests") {
        return reader.SkipValue(depth);
      }
      count = 0;
      decoded = 0;
      item_error.clear();
      if (reader.At('{')) {
        shape = Shape::kObject;
        return read_item(depth);
      }
      if (reader.At('[')) {
        shape = Shape::kArray;
        return reader.ReadArray(depth, read_item);
      }
      shape = Shape::kOther;
      return reader.SkipValue(depth);
    });
  });
  // The checks in the order they report: frame, id, then requests.
  const char* fail = nullptr;
  if (!parsed) {
    *error = reader.error();
  } else if (!object) {
    fail = "frame must be a JSON object";
  } else if (id_seen == Seen::kBad) {
    fail = "'id' must be a non-negative integer";
  } else {
    *id = id_value;
    if (shape == Shape::kAbsent) {
      fail = "frame needs a 'requests' array";
    } else if (shape == Shape::kOther) {
      fail = "'requests' must be an array (or a single request object)";
    } else if (count == 0) {
      fail = "'requests' must not be empty";
    } else if (!item_error.empty()) {
      // Requests before the bad one stay decoded.
      requests->resize(decoded);
      if (shape == Shape::kArray) {
        *error = "requests[";
        *error += std::to_string(bad_index);
        *error += "]: ";
      }
      *error += item_error;
      return false;
    } else {
      requests->resize(decoded);
      return true;
    }
  }
  if (fail != nullptr) {
    *error = fail;
  }
  requests->clear();
  return false;
}


void EncodeResponseLine(std::uint64_t id, std::size_t index,
                        const serve::PredictResponse& response, std::string* out) {
  *out += "{\"id\":";
  AppendInt(out, id);
  *out += ",\"index\":";
  AppendInt(out, index);
  *out += ",\"status\":\"";
  *out += serve::PredictStatusName(response.status);
  *out += '"';
  if (!response.error.empty()) {
    *out += ",\"error\":";
    AppendJsonString(out, response.error);
  }
  *out += ",\"value\":";
  AppendDouble(out, response.value);
  *out += ",\"throughput\":";
  AppendDouble(out, response.throughput);
  *out += ",\"cache_hit\":";
  *out += response.cache_hit ? "true" : "false";
  *out += ",\"eval_ns\":";
  AppendInt(out, response.eval_ns);
  if (!response.trace_id.empty()) {
    *out += ",\"trace_id\":";
    AppendJsonString(out, response.trace_id);
  }
  if (!response.tenant.empty()) {
    *out += ",\"tenant\":";
    AppendJsonString(out, response.tenant);
  }
  if (response.explain.filled) {
    const serve::ExplainInfo& ex = response.explain;
    *out += ",\"explain\":{\"representation\":";
    AppendJsonString(out, ex.representation);
    *out += ",\"cache\":";
    AppendJsonString(out, ex.cache);
    *out += ",\"queue_wait_ns\":";
    AppendInt(out, ex.queue_wait_ns);
    *out += ",\"eval_ns\":";
    AppendInt(out, ex.eval_ns);
    *out += ",\"steps\":";
    AppendInt(out, ex.steps);
    *out += ",\"memo_components\":";
    AppendInt(out, ex.memo_components);
    *out += ",\"derived_hits\":";
    AppendInt(out, ex.derived_hits);
    *out += ",\"deadline_limited\":";
    *out += ex.deadline_limited ? "true" : "false";
    *out += ",\"shadowed\":";
    *out += ex.shadowed ? "true" : "false";
    if (ex.shadowed) {
      *out += ",\"shadow_truth\":";
      AppendDouble(out, ex.shadow_truth);
      *out += ",\"shadow_rel_err\":";
      AppendDouble(out, ex.shadow_rel_err);
    }
    *out += '}';
  }
  *out += "}\n";
}

void EncodeMalformedLine(std::uint64_t id, std::string_view error, std::string* out) {
  *out += "{\"id\":";
  AppendInt(out, id);
  *out += ",\"malformed\":true,\"error\":";
  AppendJsonString(out, error);
  *out += "}\n";
}

bool DecodeResponseLine(std::string_view line, WireResponse* out, std::string* error) {
  *out = WireResponse();
  error->clear();
  JsonReader reader(line);
  // Every member is read into `last` (a field given twice counts at its
  // last occurrence), then copied into *out in the order the fields are
  // checked, so a refused line leaves *out as filled up to its bad field.
  WireResponse last;
  serve::PredictResponse& r = last.response;
  bool object = false;
  Seen id_seen = Seen::kAbsent;
  Seen index_seen = Seen::kAbsent;
  Seen eval_ns_seen = Seen::kAbsent;
  bool status_good = false;
  std::uint64_t index = 0;
  Scalar v;
  const auto number = [&v] { return v.kind == Scalar::Kind::kNumber ? v.number : 0.0; };
  const auto boolean = [&v] { return v.kind == Scalar::Kind::kBool && v.boolean; };
  const auto string = [&v] {
    return v.kind == Scalar::Kind::kString ? std::move(v.str) : std::string();
  };
  const auto count = [&v] {
    std::uint64_t n = 0;
    ScalarToInt(v, &n);
    return n;
  };
  const auto read_explain = [&](std::string& key, int depth) {
    if (!reader.ReadScalar(depth, &v)) {
      return false;
    }
    serve::ExplainInfo& ex = r.explain;
    if (key == "representation") {
      ex.representation = string();
    } else if (key == "cache") {
      ex.cache = string();
    } else if (key == "queue_wait_ns") {
      ex.queue_wait_ns = count();
    } else if (key == "eval_ns") {
      ex.eval_ns = count();
    } else if (key == "steps") {
      ex.steps = count();
    } else if (key == "memo_components") {
      ex.memo_components = count();
    } else if (key == "derived_hits") {
      ex.derived_hits = count();
    } else if (key == "deadline_limited") {
      ex.deadline_limited = boolean();
    } else if (key == "shadowed") {
      ex.shadowed = boolean();
    } else if (key == "shadow_truth") {
      ex.shadow_truth = number();
    } else if (key == "shadow_rel_err") {
      ex.shadow_rel_err = number();
    }
    return true;
  };
  const bool parsed = reader.Document([&] {
    if (!reader.At('{')) {
      return reader.SkipValue(0);
    }
    object = true;
    return reader.ReadObject(0, [&](std::string& key, int depth) {
      if (key == "explain") {
        r.explain = serve::ExplainInfo();
        if (!reader.At('{')) {
          return reader.SkipValue(depth);
        }
        r.explain.filled = true;
        return reader.ReadObject(depth, read_explain);
      }
      if (!reader.ReadScalar(depth, &v)) {
        return false;
      }
      if (key == "id") {
        id_seen = ScalarToInt(v, &last.id) ? Seen::kGood : Seen::kBad;
      } else if (key == "malformed") {
        last.malformed = boolean();
      } else if (key == "index") {
        index_seen = ScalarToInt(v, &index) ? Seen::kGood : Seen::kBad;
      } else if (key == "status") {
        status_good =
            v.kind == Scalar::Kind::kString && serve::PredictStatusFromName(v.str, &r.status);
      } else if (key == "error") {
        r.error = string();
      } else if (key == "value") {
        r.value = number();
      } else if (key == "throughput") {
        r.throughput = number();
      } else if (key == "cache_hit") {
        r.cache_hit = boolean();
      } else if (key == "eval_ns") {
        eval_ns_seen = ScalarToInt(v, &r.eval_ns) ? Seen::kGood : Seen::kBad;
      } else if (key == "trace_id") {
        r.trace_id = string();
      } else if (key == "tenant") {
        r.tenant = string();
      }
      return true;
    });
  });
  if (!parsed) {
    *error = reader.error();
    return false;
  }
  if (!object) {
    *error = "response line must be a JSON object";
    return false;
  }
  if (id_seen == Seen::kBad) {
    *error = "'id' must be a non-negative integer";
    return false;
  }
  out->id = last.id;
  if (last.malformed) {
    out->malformed = true;
    out->response.error = std::move(r.error);
    return true;
  }
  if (index_seen != Seen::kGood) {
    *error = "response line needs an integer 'index'";
    return false;
  }
  out->index = static_cast<std::size_t>(index);
  if (!status_good) {
    *error = "response line needs a valid 'status'";
    return false;
  }
  serve::PredictResponse& o = out->response;
  o.status = r.status;
  o.error = std::move(r.error);
  o.value = r.value;
  o.throughput = r.throughput;
  o.cache_hit = r.cache_hit;
  if (eval_ns_seen == Seen::kBad) {
    *error = "'eval_ns' must be a non-negative integer";
    return false;
  }
  o.eval_ns = r.eval_ns;
  o.trace_id = std::move(r.trace_id);
  o.tenant = std::move(r.tenant);
  o.explain = std::move(r.explain);
  return true;
}


}  // namespace perfiface::net
