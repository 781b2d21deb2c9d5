// Wire codec for the prediction service's TCP front end.
//
// The protocol is newline-delimited JSON: every frame is one line, one
// JSON object, terminated by '\n'. A client sends request frames
//
//   {"id": 7, "requests": [{"interface": "jpeg_decoder", ...}, ...]}
//
// (a single request object is accepted in place of the array) and the
// server streams back one response line per request, in completion order,
// tagged with the client's id and the request's index within the frame:
//
//   {"id": 7, "index": 0, "status": "OK", "value": 1.5e6, ...}
//
// A malformed frame yields exactly one error line ({"id": N, "malformed":
// true, "error": "..."}) and never kills the connection. Ids are opaque to
// the server — clients pick them to demultiplex pipelined batches.
//
// Both decoders are one single-pass JSON reader: it writes the fields
// straight into the request or response and builds no tree. Numbers are
// ParseDecimal numbers (src/common/strings.h). Integer fields (id,
// max_steps, deadline_us, eval_ns) are encoded as bare JSON integers and
// decoded from the raw digit text, never through double, so values near
// INT64_MAX round-trip exactly (docs/serving.md "Wire protocol" documents
// the full frame schema).
//
// Requests may carry a "tenant" string (at most 64 bytes) naming the
// tenant for per-tenant admission quotas and metrics; it is echoed in
// every response line and — like trace_id — excluded from cache keys
// (docs/serving.md "Admission control & tenancy").
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"
#include "src/serve/request.h"

namespace perfiface::net {

// The JSON string encoder every JSON writer shares (src/common/strings.h).
using ::perfiface::AppendJsonString;

// --- Frame reader ----------------------------------------------------------

// Splits a TCP byte stream into newline-delimited frames, enforcing a
// maximum frame size. After an oversized frame the reader discards bytes
// until the next newline, reports the frame once as kOversized, and
// resumes — one bad client frame never desynchronizes the stream.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {}

  enum class Next { kFrame, kNeedMore, kOversized };

  // Appends bytes received from the socket.
  void Append(const char* data, std::size_t n);

  // Pops the next complete frame into *frame (newline stripped). Returns
  // kNeedMore when no full frame is buffered yet; kOversized once per
  // frame whose length exceeded the cap (frame is left empty).
  Next Pop(std::string* frame);

  // Bytes buffered but not yet popped (excludes skipped oversized bytes).
  std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  std::size_t max_frame_bytes_;
  // buffer_[0, head_) was popped already; Append drops it, so a burst of
  // frames pops in time linear in its bytes.
  std::string buffer_;
  std::size_t head_ = 0;
  std::size_t scan_from_ = 0;  // buffer_[head_, scan_from_) known newline-free
  bool skipping_ = false;      // discarding an oversized frame's tail
  bool report_oversized_ = false;
};

// --- Frame codec -----------------------------------------------------------

// One response line as decoded off the wire. `malformed` lines carry only
// id + error (the server could not parse the client's frame).
struct WireResponse {
  std::uint64_t id = 0;
  std::size_t index = 0;
  bool malformed = false;
  serve::PredictResponse response;
};

// Request frame: {"id": N, "requests": [...]}. Appends one line (with
// trailing '\n') to *out.
void EncodeRequestFrame(std::uint64_t id, const std::vector<serve::PredictRequest>& requests,
                        std::string* out);

// Decodes a request frame. attrs come out sorted by name; of a key given
// twice the last occurrence counts. On failure returns false with a
// diagnostic in *error: a syntax error anywhere outranks a bad field, and of
// bad fields the one checked first is named. *id is still filled when the
// frame parsed and its id is good (so the error line can echo it back), and
// *requests keeps those decoded before a bad one. Requests are decoded
// into the elements *requests already holds, reusing their strings' and
// attrs' storage, and the vector then shrinks to the decoded count: what
// comes out never depends on what the vector held before.
bool DecodeRequestFrame(std::string_view frame, std::uint64_t* id,
                        std::vector<serve::PredictRequest>* requests, std::string* error);

// Response line for requests[index] of frame `id`. Carries the response's
// trace_id and tenant echo (when set) and, for explain-flagged requests,
// the structured provenance breakdown (docs/observability.md "Explain").
void EncodeResponseLine(std::uint64_t id, std::size_t index,
                        const serve::PredictResponse& response, std::string* out);

// Error line for a frame the server could not parse.
void EncodeMalformedLine(std::uint64_t id, std::string_view error, std::string* out);

// Decodes either a response or a malformed line. A refused line leaves
// *out filled with the fields checked before the bad one.
bool DecodeResponseLine(std::string_view line, WireResponse* out, std::string* error);

}  // namespace perfiface::net

#endif  // SRC_NET_WIRE_H_
