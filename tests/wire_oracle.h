// The JSON DOM the NDJSON wire decoders were first written on, kept as the
// oracle of the single-pass reader in src/net/wire.cc: `ParseJson` builds a
// tree of `JsonValue`s, and `DecodeRequestFrame` / `DecodeResponseLine`
// read the wire fields off that tree. The reader must accept and refuse the
// same text with byte-identical errors and decode the same fields
// (net_test's golden frames and fuzz_test's WireFuzz compare the two).
// Tests also use the DOM to read the JSON the HTTP endpoints serve.
#ifndef TESTS_WIRE_ORACLE_H_
#define TESTS_WIRE_ORACLE_H_

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/net/wire.h"
#include "src/serve/request.h"

namespace perfiface::net::oracle {

// Objects, arrays, strings (with escapes; \uXXXX decodes to UTF-8), numbers,
// true/false/null. Numbers keep their raw source text so integer fields can
// be re-parsed exactly.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;

  bool bool_value = false;
  double number = 0;
  std::string raw_number;  // exact source text, e.g. "9223372036854775807"
  std::string str;
  std::map<std::string, std::unique_ptr<JsonValue>> object;
  std::vector<std::unique_ptr<JsonValue>> array;

  const JsonValue* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : it->second.get();
  }
};

namespace internal {

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
inline bool RawToInt64(const JsonValue& v, std::int64_t* out) {
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

inline bool RawToUint64(const JsonValue& v, std::uint64_t* out) {
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

inline bool RepresentationFromName(std::string_view name, serve::Representation* out) {
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

inline bool DecodeRequestObject(const JsonValue& obj, serve::PredictRequest* req,
                                std::string* error) {
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

}  // namespace internal

// Parses exactly one JSON document; trailing non-whitespace is an error.
// Nesting is capped (64 levels) so hostile input cannot blow the stack.
inline bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  return internal::JsonParser(text, error).Parse(out);
}

// net::DecodeRequestFrame as the DOM decodes it.
inline bool DecodeRequestFrame(std::string_view frame, std::uint64_t* id,
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
    if (!internal::RawToUint64(*idv, id)) {
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
    if (!internal::DecodeRequestObject(*reqs, &req, error)) {
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
    if (!internal::DecodeRequestObject(*reqs->array[i], &req, &item_error)) {
      *error = StrFormat("requests[%zu]: %s", i, item_error.c_str());
      return false;
    }
    requests->push_back(std::move(req));
  }
  return true;
}

// net::DecodeResponseLine as the DOM decodes it.
inline bool DecodeResponseLine(std::string_view line, WireResponse* out, std::string* error) {
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
    if (!internal::RawToUint64(*idv, &out->id)) {
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
  if (idx == nullptr || !internal::RawToUint64(*idx, &index)) {
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
    if (!internal::RawToUint64(*ns, &out->response.eval_ns)) {
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
      internal::RawToUint64(*v, &ex.queue_wait_ns);
    }
    if (const JsonValue* v = explain->Find("eval_ns"); v != nullptr) {
      internal::RawToUint64(*v, &ex.eval_ns);
    }
    if (const JsonValue* v = explain->Find("steps"); v != nullptr) {
      internal::RawToUint64(*v, &ex.steps);
    }
    if (const JsonValue* v = explain->Find("memo_components"); v != nullptr) {
      internal::RawToUint64(*v, &ex.memo_components);
    }
    if (const JsonValue* v = explain->Find("derived_hits"); v != nullptr) {
      internal::RawToUint64(*v, &ex.derived_hits);
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

// --- Differential helpers ----------------------------------------------------
//
// A decode's whole outcome as text: acceptance, error, id and every field,
// doubles by their bits, so two decoders agree exactly when their dumps are
// equal.

inline std::string DumpBits(double v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
}

inline std::string DumpRequestDecode(bool ok, std::uint64_t id,
                                     const std::vector<serve::PredictRequest>& requests,
                                     const std::string& error) {
  std::string out = StrFormat("ok=%d id=%llu error=", ok ? 1 : 0,
                              static_cast<unsigned long long>(id));
  AppendJsonString(&out, error);
  for (const serve::PredictRequest& r : requests) {
    out += "\n  {interface=";
    AppendJsonString(&out, r.interface);
    out += StrFormat(" rep=%d function=", static_cast<int>(r.representation));
    AppendJsonString(&out, r.function);
    out += " attrs=[";
    for (const auto& [name, value] : r.attrs) {
      AppendJsonString(&out, name);
      out += ':';
      out += DumpBits(value);
      out += ' ';
    }
    out += StrFormat("] children=%d entry_place=", r.children);
    AppendJsonString(&out, r.entry_place);
    out += StrFormat(" tokens=%d max_steps=%llu deadline_us=%lld trace_id=", r.tokens,
                     static_cast<unsigned long long>(r.max_steps),
                     static_cast<long long>(r.deadline_us));
    AppendJsonString(&out, r.trace_id);
    out += StrFormat(" explain=%d tenant=", r.explain ? 1 : 0);
    AppendJsonString(&out, r.tenant);
    out += "}";
  }
  return out;
}

inline std::string DumpResponseDecode(bool ok, const WireResponse& w, const std::string& error) {
  const serve::PredictResponse& r = w.response;
  const serve::ExplainInfo& ex = r.explain;
  std::string out = StrFormat("ok=%d id=%llu index=%zu malformed=%d error=", ok ? 1 : 0,
                              static_cast<unsigned long long>(w.id), w.index, w.malformed ? 1 : 0);
  AppendJsonString(&out, error);
  out += StrFormat(" status=%d response.error=", static_cast<int>(r.status));
  AppendJsonString(&out, r.error);
  out += " value=";
  out += DumpBits(r.value);
  out += " throughput=";
  out += DumpBits(r.throughput);
  out += StrFormat(" cache_hit=%d eval_ns=%llu trace_id=", r.cache_hit ? 1 : 0,
                   static_cast<unsigned long long>(r.eval_ns));
  AppendJsonString(&out, r.trace_id);
  out += " tenant=";
  AppendJsonString(&out, r.tenant);
  out += StrFormat(" explain={filled=%d representation=", ex.filled ? 1 : 0);
  AppendJsonString(&out, ex.representation);
  out += " cache=";
  AppendJsonString(&out, ex.cache);
  out += StrFormat(" queue_wait_ns=%llu eval_ns=%llu steps=%llu memo_components=%llu "
                   "derived_hits=%llu deadline_limited=%d shadowed=%d shadow_truth=",
                   static_cast<unsigned long long>(ex.queue_wait_ns),
                   static_cast<unsigned long long>(ex.eval_ns),
                   static_cast<unsigned long long>(ex.steps),
                   static_cast<unsigned long long>(ex.memo_components),
                   static_cast<unsigned long long>(ex.derived_hits), ex.deadline_limited ? 1 : 0,
                   ex.shadowed ? 1 : 0);
  out += DumpBits(ex.shadow_truth);
  out += " shadow_rel_err=";
  out += DumpBits(ex.shadow_rel_err);
  out += '}';
  return out;
}

// {net::DecodeRequestFrame's outcome, the oracle's outcome} for one frame,
// net's decoded into `requests`: the storage a reused vector carries over
// from an earlier frame, which must not show through.
inline std::pair<std::string, std::string> DecodeRequestFrameBothWays(
    std::string_view frame, std::vector<serve::PredictRequest> requests) {
  std::uint64_t id = 7;
  std::string error = "stale";
  const bool ok = net::DecodeRequestFrame(frame, &id, &requests, &error);
  std::uint64_t want_id = 7;
  std::vector<serve::PredictRequest> want_requests(1);
  std::string want_error = "stale";
  const bool want_ok = oracle::DecodeRequestFrame(frame, &want_id, &want_requests, &want_error);
  return {DumpRequestDecode(ok, id, requests, error),
          DumpRequestDecode(want_ok, want_id, want_requests, want_error)};
}

inline std::pair<std::string, std::string> DecodeRequestFrameBothWays(std::string_view frame) {
  return DecodeRequestFrameBothWays(frame, std::vector<serve::PredictRequest>(1));
}

// {net::DecodeResponseLine's outcome, the oracle's outcome} for one line,
// net's decoded into `got`, left over from an earlier line.
inline std::pair<std::string, std::string> DecodeResponseLineBothWays(std::string_view line,
                                                                      WireResponse got) {
  std::string error = "stale";
  const bool ok = net::DecodeResponseLine(line, &got, &error);
  WireResponse want;
  want.id = 7;
  std::string want_error = "stale";
  const bool want_ok = oracle::DecodeResponseLine(line, &want, &want_error);
  return {DumpResponseDecode(ok, got, error), DumpResponseDecode(want_ok, want, want_error)};
}

inline std::pair<std::string, std::string> DecodeResponseLineBothWays(std::string_view line) {
  WireResponse got;
  got.id = 7;
  return DecodeResponseLineBothWays(line, std::move(got));
}

}  // namespace perfiface::net::oracle

#endif  // TESTS_WIRE_ORACLE_H_
