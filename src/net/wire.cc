#include "src/net/wire.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/strings.h"

namespace perfiface::net {

namespace {

// Nesting cap: hostile "[[[[..." input must not blow the parser's stack.
constexpr int kMaxDepth = 64;

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing garbage after JSON document");
    }
    return true;
  }

 private:
  bool Fail(const char* msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = StrFormat("%s at byte %zu", msg, pos_);
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

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f': return ParseBool(out);
      case 'n': return ParseNull(out);
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      auto value = std::make_unique<JsonValue>();
      if (!ParseValue(value.get(), depth + 1)) {
        return false;
      }
      out->object[key] = std::move(value);  // last duplicate key wins
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

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      auto value = std::make_unique<JsonValue>();
      if (!ParseValue(value.get(), depth + 1)) {
        return false;
      }
      out->array.push_back(std::move(value));
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

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) {
        return Fail("truncated escape");
      }
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) {
            return false;
          }
          AppendUtf8(out, code);
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseHex4(unsigned* out) {
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

  // Encodes a BMP code point as UTF-8. Surrogates are passed through as
  //-is (the wire never emits them; replacement would be equally fine).
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

  bool ParseBool(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      pos_ += 5;
      return true;
    }
    return Fail("bad literal");
  }

  bool ParseNull(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("bad literal");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->raw_number.assign(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    out->number = std::strtod(out->raw_number.c_str(), &end);
    if (end != out->raw_number.c_str() + out->raw_number.size()) {
      return Fail("bad number");
    }
    // Past the double range strtod answers +-inf, which no JSON encoder
    // (ours included) can write back.
    if (!std::isfinite(out->number)) {
      return Fail("number out of range");
    }
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

// Exact integer decode off the raw digit text: doubles hold only 53
// mantissa bits, so id/deadline_us/max_steps near INT64_MAX would be
// silently rounded if they went through `number`.
bool RawToInt64(const JsonValue& v, std::int64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber ||
      v.raw_number.find_first_of(".eE") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.raw_number.c_str(), &end, 10);
  if (end != v.raw_number.c_str() + v.raw_number.size() || errno == ERANGE) {
    return false;
  }
  *out = parsed;
  return true;
}

bool RawToUint64(const JsonValue& v, std::uint64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber || v.raw_number.empty() || v.raw_number[0] == '-' ||
      v.raw_number.find_first_of(".eE") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.raw_number.c_str(), &end, 10);
  if (end != v.raw_number.c_str() + v.raw_number.size() || errno == ERANGE) {
    return false;
  }
  *out = parsed;
  return true;
}

// Number formatting for the encoders, appended in place: integers through
// std::to_chars, doubles through one "%.17g" snprintf into a stack buffer
// (17 significant digits round-trip every double).
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[20];  // INT64_MIN and UINT64_MAX both print in 20
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendDouble(std::string* out, double v) {
  char buf[32];  // the longest %.17g output, "-2.2250738585072014e-308", is 24
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf, static_cast<std::size_t>(n));
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

bool DecodeRequestObject(const JsonValue& obj, serve::PredictRequest* req, std::string* error) {
  if (obj.kind != JsonValue::Kind::kObject) {
    *error = "request must be a JSON object";
    return false;
  }
  const JsonValue* iface = obj.Find("interface");
  if (iface == nullptr || iface->kind != JsonValue::Kind::kString || iface->str.empty()) {
    *error = "request needs a non-empty string 'interface'";
    return false;
  }
  req->interface = iface->str;
  if (const JsonValue* rep = obj.Find("rep"); rep != nullptr) {
    if (rep->kind != JsonValue::Kind::kString ||
        !RepresentationFromName(rep->str, &req->representation)) {
      *error = "'rep' must be \"auto\", \"program\", or \"pnet\"";
      return false;
    }
  }
  if (const JsonValue* fn = obj.Find("function"); fn != nullptr) {
    if (fn->kind != JsonValue::Kind::kString) {
      *error = "'function' must be a string";
      return false;
    }
    req->function = fn->str;
  }
  if (const JsonValue* attrs = obj.Find("attrs"); attrs != nullptr) {
    if (attrs->kind != JsonValue::Kind::kObject) {
      *error = "'attrs' must be an object of numbers";
      return false;
    }
    for (const auto& [name, value] : attrs->object) {
      if (value->kind != JsonValue::Kind::kNumber) {
        *error = StrFormat("attr '%s' must be a number", name.c_str());
        return false;
      }
      req->attrs.emplace_back(name, value->number);
    }
  }
  if (const JsonValue* children = obj.Find("children"); children != nullptr) {
    std::int64_t n = 0;
    if (!RawToInt64(*children, &n) || n < 0 || n > 1'000'000) {
      *error = "'children' must be an integer in [0, 1000000]";
      return false;
    }
    req->children = static_cast<int>(n);
  }
  if (const JsonValue* place = obj.Find("entry_place"); place != nullptr) {
    if (place->kind != JsonValue::Kind::kString) {
      *error = "'entry_place' must be a string";
      return false;
    }
    req->entry_place = place->str;
  }
  if (const JsonValue* tokens = obj.Find("tokens"); tokens != nullptr) {
    std::int64_t n = 0;
    if (!RawToInt64(*tokens, &n) || n < 1 || n > 1'000'000'000) {
      *error = "'tokens' must be an integer in [1, 1e9]";
      return false;
    }
    req->tokens = static_cast<int>(n);
  }
  if (const JsonValue* steps = obj.Find("max_steps"); steps != nullptr) {
    if (!RawToUint64(*steps, &req->max_steps)) {
      *error = "'max_steps' must be a non-negative integer";
      return false;
    }
  }
  if (const JsonValue* deadline = obj.Find("deadline_us"); deadline != nullptr) {
    if (!RawToInt64(*deadline, &req->deadline_us) || req->deadline_us < 0) {
      *error = "'deadline_us' must be a non-negative integer";
      return false;
    }
  }
  if (const JsonValue* trace = obj.Find("trace_id"); trace != nullptr) {
    // Bounded: the id is echoed into every span and response line, so a
    // hostile client must not get to inflate them arbitrarily.
    if (trace->kind != JsonValue::Kind::kString || trace->str.size() > 128) {
      *error = "'trace_id' must be a string of at most 128 bytes";
      return false;
    }
    req->trace_id = trace->str;
  }
  if (const JsonValue* explain = obj.Find("explain"); explain != nullptr) {
    if (explain->kind != JsonValue::Kind::kBool) {
      *error = "'explain' must be a boolean";
      return false;
    }
    req->explain = explain->bool_value;
  }
  if (const JsonValue* tenant = obj.Find("tenant"); tenant != nullptr) {
    // Bounded like trace_id: the tenant is echoed into responses and
    // becomes a metrics label, so a hostile client must not get to inflate
    // either arbitrarily.
    if (tenant->kind != JsonValue::Kind::kString || tenant->str.size() > 64) {
      *error = "'tenant' must be a string of at most 64 bytes";
      return false;
    }
    req->tenant = tenant->str;
  }
  return true;
}

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  return JsonParser(text, error).Parse(out);
}

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
  requests->clear();
  JsonValue root;
  if (!ParseJson(frame, &root, error)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "frame must be a JSON object";
    return false;
  }
  if (const JsonValue* idv = root.Find("id"); idv != nullptr) {
    if (!RawToUint64(*idv, id)) {
      *error = "'id' must be a non-negative integer";
      return false;
    }
  }
  const JsonValue* reqs = root.Find("requests");
  if (reqs == nullptr) {
    *error = "frame needs a 'requests' array";
    return false;
  }
  // Single-object shorthand: {"id":1,"requests":{...}} is a batch of one.
  if (reqs->kind == JsonValue::Kind::kObject) {
    serve::PredictRequest req;
    if (!DecodeRequestObject(*reqs, &req, error)) {
      return false;
    }
    requests->push_back(std::move(req));
    return true;
  }
  if (reqs->kind != JsonValue::Kind::kArray) {
    *error = "'requests' must be an array (or a single request object)";
    return false;
  }
  if (reqs->array.empty()) {
    *error = "'requests' must not be empty";
    return false;
  }
  requests->reserve(reqs->array.size());
  for (std::size_t i = 0; i < reqs->array.size(); ++i) {
    serve::PredictRequest req;
    std::string item_error;
    if (!DecodeRequestObject(*reqs->array[i], &req, &item_error)) {
      *error = StrFormat("requests[%zu]: %s", i, item_error.c_str());
      return false;
    }
    requests->push_back(std::move(req));
  }
  return true;
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
  JsonValue root;
  if (!ParseJson(line, &root, error)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "response line must be a JSON object";
    return false;
  }
  if (const JsonValue* idv = root.Find("id"); idv != nullptr) {
    if (!RawToUint64(*idv, &out->id)) {
      *error = "'id' must be a non-negative integer";
      return false;
    }
  }
  if (const JsonValue* mal = root.Find("malformed");
      mal != nullptr && mal->kind == JsonValue::Kind::kBool && mal->bool_value) {
    out->malformed = true;
    if (const JsonValue* err = root.Find("error");
        err != nullptr && err->kind == JsonValue::Kind::kString) {
      out->response.error = err->str;
    }
    return true;
  }
  std::uint64_t index = 0;
  const JsonValue* idx = root.Find("index");
  if (idx == nullptr || !RawToUint64(*idx, &index)) {
    *error = "response line needs an integer 'index'";
    return false;
  }
  out->index = static_cast<std::size_t>(index);
  const JsonValue* status = root.Find("status");
  if (status == nullptr || status->kind != JsonValue::Kind::kString ||
      !serve::PredictStatusFromName(status->str, &out->response.status)) {
    *error = "response line needs a valid 'status'";
    return false;
  }
  if (const JsonValue* err = root.Find("error");
      err != nullptr && err->kind == JsonValue::Kind::kString) {
    out->response.error = err->str;
  }
  if (const JsonValue* value = root.Find("value");
      value != nullptr && value->kind == JsonValue::Kind::kNumber) {
    out->response.value = value->number;
  }
  if (const JsonValue* tput = root.Find("throughput");
      tput != nullptr && tput->kind == JsonValue::Kind::kNumber) {
    out->response.throughput = tput->number;
  }
  if (const JsonValue* hit = root.Find("cache_hit");
      hit != nullptr && hit->kind == JsonValue::Kind::kBool) {
    out->response.cache_hit = hit->bool_value;
  }
  if (const JsonValue* ns = root.Find("eval_ns"); ns != nullptr) {
    if (!RawToUint64(*ns, &out->response.eval_ns)) {
      *error = "'eval_ns' must be a non-negative integer";
      return false;
    }
  }
  if (const JsonValue* trace = root.Find("trace_id");
      trace != nullptr && trace->kind == JsonValue::Kind::kString) {
    out->response.trace_id = trace->str;
  }
  if (const JsonValue* tenant = root.Find("tenant");
      tenant != nullptr && tenant->kind == JsonValue::Kind::kString) {
    out->response.tenant = tenant->str;
  }
  if (const JsonValue* explain = root.Find("explain");
      explain != nullptr && explain->kind == JsonValue::Kind::kObject) {
    serve::ExplainInfo& ex = out->response.explain;
    ex.filled = true;
    if (const JsonValue* v = explain->Find("representation");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      ex.representation = v->str;
    }
    if (const JsonValue* v = explain->Find("cache");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      ex.cache = v->str;
    }
    if (const JsonValue* v = explain->Find("queue_wait_ns"); v != nullptr) {
      RawToUint64(*v, &ex.queue_wait_ns);
    }
    if (const JsonValue* v = explain->Find("eval_ns"); v != nullptr) {
      RawToUint64(*v, &ex.eval_ns);
    }
    if (const JsonValue* v = explain->Find("steps"); v != nullptr) {
      RawToUint64(*v, &ex.steps);
    }
    if (const JsonValue* v = explain->Find("memo_components"); v != nullptr) {
      RawToUint64(*v, &ex.memo_components);
    }
    if (const JsonValue* v = explain->Find("derived_hits"); v != nullptr) {
      RawToUint64(*v, &ex.derived_hits);
    }
    if (const JsonValue* v = explain->Find("deadline_limited");
        v != nullptr && v->kind == JsonValue::Kind::kBool) {
      ex.deadline_limited = v->bool_value;
    }
    if (const JsonValue* v = explain->Find("shadowed");
        v != nullptr && v->kind == JsonValue::Kind::kBool) {
      ex.shadowed = v->bool_value;
    }
    if (const JsonValue* v = explain->Find("shadow_truth");
        v != nullptr && v->kind == JsonValue::Kind::kNumber) {
      ex.shadow_truth = v->number;
    }
    if (const JsonValue* v = explain->Find("shadow_rel_err");
        v != nullptr && v->kind == JsonValue::Kind::kNumber) {
      ex.shadow_rel_err = v->number;
    }
  }
  return true;
}

}  // namespace perfiface::net
