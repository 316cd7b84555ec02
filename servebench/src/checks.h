// Response checks for the serve-path benchmark, computed independently of
// the server: the expected body is rebuilt here from the documented content
// format ("<path>#<size>#" followed by a 64-byte fill rotated by
// FNV-1a(path) mod 64) rather than borrowed from ContentStore, so a change
// in the server's content generator shows up as failed operations.
#ifndef SERVEBENCH_SRC_CHECKS_H_
#define SERVEBENCH_SRC_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

uint64_t Fnv1a(std::string_view text);

// True when `body` is exactly the document `path` of `size` bytes.
bool BodyMatches(std::string_view body, std::string_view path, uint64_t size);

// The expected document, for tests that need to build responses.
std::string ExpectedBody(std::string_view path, uint64_t size);

struct ParsedResponse {
  int status = 0;
  int64_t content_length = -1;  // -1: no Content-Length header
  std::string body;
};

// Incremental HTTP/1.x response reader for a blocking client. Responses are
// framed by Content-Length; one without it cannot be framed and is an error.
class ResponseReader {
 public:
  // Appends bytes and moves every complete response into *out. Returns false
  // on malformed input.
  bool Feed(const char* data, size_t size, std::vector<ParsedResponse>* out);

 private:
  std::string buffer_;
  size_t offset_ = 0;  // start of the unparsed suffix
};

struct ExpectedResponse {
  std::string_view path;
  uint64_t size = 0;
};

enum class Verdict {
  kOk = 0,
  kBadStatus,   // status other than 200
  kBadLength,   // Content-Length (or body length) differs from the catalog size
  kReordered,   // the body belongs to another request of the same batch
  kBadBody,     // wrong bytes
  kCount,
};

const char* VerdictName(Verdict verdict);

// Checks `response` as the answer to batch[index] of a pipelined batch.
Verdict CheckResponse(const ParsedResponse& response,
                      const std::vector<ExpectedResponse>& batch, size_t index);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_CHECKS_H_
