// Self-test of the benchmark's response checks: each check must accept the
// right response and reject a wrong status, a wrong length, a reordered
// response and a wrong body. Run with `python3 servebench/run.py --selftest`.
#include <cstdio>
#include <string>
#include <vector>

#include "servebench/src/checks.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::string Response(int status, const std::string& body, int64_t content_length) {
  return "HTTP/1.1 " + std::to_string(status) + " X\r\nServer: t\r\nContent-Length: " +
         std::to_string(content_length) + "\r\n\r\n" + body;
}

std::vector<ParsedResponse> Parse(const std::string& bytes, bool* ok) {
  ResponseReader reader;
  std::vector<ParsedResponse> out;
  *ok = true;
  // Byte by byte, to exercise responses split across reads.
  for (const char c : bytes) {
    *ok = *ok && reader.Feed(&c, 1, &out);
  }
  return out;
}

void TestContentFormat() {
  // Computed by hand from the format: "/a#70#" then the fill rotated by
  // FNV-1a("/a") % 64, indexed from the start of the body.
  const std::string body = ExpectedBody("/a", 70);
  const uint64_t rot = Fnv1a("/a") % 64;
  const std::string fill = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";
  Expect(body.size() == 70, "document length");
  Expect(body.compare(0, 6, "/a#70#") == 0, "document header");
  Expect(body[6] == fill[(6 + rot) % 64] && body[69] == fill[(69 + rot) % 64], "document fill");
  Expect(ExpectedBody("/long/path", 4) == "/lon", "header truncated to the size");
  Expect(BodyMatches(body, "/a", 70), "format accepts its own document");
}

void TestChecks() {
  const std::vector<ExpectedResponse> batch = {{"/p0/index.html", 300}, {"/p0/obj1.dat", 500},
                                               {"/p0/obj2.dat", 500}};
  std::string stream;
  for (const ExpectedResponse& e : batch) {
    stream += Response(200, ExpectedBody(e.path, e.size), static_cast<int64_t>(e.size));
  }
  bool ok = false;
  std::vector<ParsedResponse> parsed = Parse(stream, &ok);
  Expect(ok && parsed.size() == 3, "pipelined responses parse");
  for (size_t i = 0; i < parsed.size(); ++i) {
    Expect(CheckResponse(parsed[i], batch, i) == Verdict::kOk, "right response passes");
  }

  // Status.
  parsed = Parse(Response(404, ExpectedBody(batch[0].path, 300), 300), &ok);
  Expect(CheckResponse(parsed[0], batch, 0) == Verdict::kBadStatus, "wrong status rejected");

  // Length: a Content-Length that differs from the catalog size, with the
  // body truncated to match it.
  const std::string right = ExpectedBody(batch[0].path, 300);
  parsed = Parse(Response(200, right.substr(0, 299), 299), &ok);
  Expect(CheckResponse(parsed[0], batch, 0) == Verdict::kBadLength, "short length rejected");
  parsed = Parse(Response(200, right + "x", 301), &ok);
  Expect(CheckResponse(parsed[0], batch, 0) == Verdict::kBadLength, "long length rejected");

  // Order: the two same-size responses of the batch swapped.
  stream = Response(200, right, 300) +
           Response(200, ExpectedBody(batch[2].path, 500), 500) +
           Response(200, ExpectedBody(batch[1].path, 500), 500);
  parsed = Parse(stream, &ok);
  Expect(ok && parsed.size() == 3, "swapped responses parse");
  Expect(CheckResponse(parsed[0], batch, 0) == Verdict::kOk, "unswapped slot passes");
  Expect(CheckResponse(parsed[1], batch, 1) == Verdict::kReordered, "reordered rejected (1)");
  Expect(CheckResponse(parsed[2], batch, 2) == Verdict::kReordered, "reordered rejected (2)");

  // Body: one flipped byte in the fill, and a fill with the wrong rotation.
  std::string flipped = ExpectedBody(batch[1].path, 500);
  flipped[400] = flipped[400] == 'a' ? 'b' : 'a';
  parsed = Parse(Response(200, flipped, 500), &ok);
  Expect(CheckResponse(parsed[0], batch, 1) == Verdict::kBadBody, "flipped byte rejected");
  std::string rotated = ExpectedBody(batch[1].path, 500);
  const std::string header = "/p0/obj1.dat#500#";
  rotated = header + ExpectedBody("/other", 500).substr(header.size());
  parsed = Parse(Response(200, rotated, 500), &ok);
  Expect(CheckResponse(parsed[0], batch, 1) == Verdict::kBadBody, "wrong rotation rejected");

  // Framing: no Content-Length cannot be framed.
  ResponseReader reader;
  std::vector<ParsedResponse> out;
  const std::string unframed = "HTTP/1.0 200 OK\r\nServer: t\r\n\r\nbody";
  Expect(!reader.Feed(unframed.data(), unframed.size(), &out), "unframed response rejected");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestContentFormat();
  servebench::TestChecks();
  if (servebench::failures == 0) {
    std::printf("servebench selftest: all checks behave\n");
  }
  return servebench::failures == 0 ? 0 : 1;
}
