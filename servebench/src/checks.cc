#include "servebench/src/checks.h"

#include <algorithm>
#include <cstring>

namespace servebench {
namespace {

constexpr char kFill[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";
constexpr size_t kFillSize = 64;

// The fill twice over, so any 64-byte run starting at any rotation is one
// contiguous slice.
const char* DoubledFill() {
  static const std::string doubled = std::string(kFill) + kFill;
  return doubled.data();
}

std::string DocumentHeader(std::string_view path, uint64_t size) {
  std::string header(path);
  header += '#';
  header += std::to_string(size);
  header += '#';
  if (header.size() > size) {
    header.resize(static_cast<size_t>(size));
  }
  return header;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    char x = a[i];
    char y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool BodyMatches(std::string_view body, std::string_view path, uint64_t size) {
  if (body.size() != size) {
    return false;
  }
  const std::string header = DocumentHeader(path, size);
  if (body.compare(0, header.size(), header) != 0) {
    return false;
  }
  // Byte i of the document (i counted from the start of the body) is
  // fill[(i + rot) % 64].
  const size_t rot = static_cast<size_t>(Fnv1a(path) % kFillSize);
  const char* fill = DoubledFill();
  size_t i = header.size();
  while (i < body.size()) {
    const size_t start = (i + rot) % kFillSize;
    const size_t run = std::min(kFillSize, body.size() - i);
    if (std::memcmp(body.data() + i, fill + start, run) != 0) {
      return false;
    }
    i += run;
  }
  return true;
}

std::string ExpectedBody(std::string_view path, uint64_t size) {
  std::string body = DocumentHeader(path, size);
  const size_t rot = static_cast<size_t>(Fnv1a(path) % kFillSize);
  for (size_t i = body.size(); i < size; ++i) {
    body.push_back(kFill[(i + rot) % kFillSize]);
  }
  return body;
}

bool ResponseReader::Feed(const char* data, size_t size, std::vector<ParsedResponse>* out) {
  buffer_.append(data, size);
  while (true) {
    const std::string_view rest(buffer_.data() + offset_, buffer_.size() - offset_);
    const size_t head_end = rest.find("\r\n\r\n");
    if (head_end == std::string_view::npos) {
      break;
    }
    const std::string_view head = rest.substr(0, head_end);
    // Status line: "HTTP/1.x NNN reason".
    if (head.size() < 12 || head.compare(0, 7, "HTTP/1.") != 0 || head[8] != ' ') {
      return false;
    }
    ParsedResponse response;
    for (size_t k = 9; k < 12; ++k) {
      if (head[k] < '0' || head[k] > '9') {
        return false;
      }
      response.status = response.status * 10 + (head[k] - '0');
    }
    size_t line_start = head.find("\r\n");
    while (line_start != std::string_view::npos) {
      line_start += 2;
      const size_t line_end = head.find("\r\n", line_start);
      const std::string_view line = head.substr(
          line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                         : line_end - line_start);
      const size_t colon = line.find(':');
      if (colon != std::string_view::npos &&
          EqualsIgnoreCase(line.substr(0, colon), "content-length")) {
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (value.empty()) {
          return false;
        }
        int64_t length = 0;
        for (const char c : value) {
          if (c < '0' || c > '9') {
            return false;
          }
          length = length * 10 + (c - '0');
        }
        response.content_length = length;
      }
      line_start = line_end;
    }
    if (response.content_length < 0) {
      return false;
    }
    const size_t total = head_end + 4 + static_cast<size_t>(response.content_length);
    if (rest.size() < total) {
      break;
    }
    response.body.assign(rest.data() + head_end + 4,
                         static_cast<size_t>(response.content_length));
    out->push_back(std::move(response));
    offset_ += total;
  }
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > 64 * 1024) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  return true;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kBadStatus: return "bad_status";
    case Verdict::kBadLength: return "bad_length";
    case Verdict::kReordered: return "reordered";
    case Verdict::kBadBody: return "bad_body";
    case Verdict::kCount: break;
  }
  return "?";
}

Verdict CheckResponse(const ParsedResponse& response,
                      const std::vector<ExpectedResponse>& batch, size_t index) {
  if (response.status != 200) {
    return Verdict::kBadStatus;
  }
  const ExpectedResponse& expected = batch[index];
  // Order first: a body that opens with another request's "<path>#<size>#"
  // header is that request's response, delivered in the wrong slot.
  const std::string own = DocumentHeader(expected.path, expected.size);
  if (std::string_view(response.body).compare(0, own.size(), own) != 0) {
    for (size_t k = 0; k < batch.size(); ++k) {
      if (k == index || batch[k].path == expected.path) {
        continue;
      }
      const std::string other = DocumentHeader(batch[k].path, batch[k].size);
      if (std::string_view(response.body).compare(0, other.size(), other) == 0) {
        return Verdict::kReordered;
      }
    }
  }
  if (response.content_length != static_cast<int64_t>(expected.size) ||
      response.body.size() != expected.size) {
    return Verdict::kBadLength;
  }
  return BodyMatches(response.body, expected.path, expected.size) ? Verdict::kOk
                                                                  : Verdict::kBadBody;
}

}  // namespace servebench
