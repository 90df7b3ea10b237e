#include "ckpt/artifact.h"

#include <fstream>
#include <sstream>

#include "base/error.h"
#include "ckpt/hash.h"

namespace secflow {
namespace {

std::uint64_t content_checksum(const Artifact& a) {
  Hasher h;
  h.add(a.kind).add(a.key);
  h.add(static_cast<std::uint64_t>(a.sections.size()));
  for (const auto& [name, payload] : a.sections) h.add(name).add(payload);
  return h.digest();
}

/// Cursor over the container text that understands "one header line, then
/// raw payload bytes" framing.  Every under-run throws ParseError.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  /// The next '\n'-terminated line (without the terminator).
  std::string line() {
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      throw ParseError("ckpt", "truncated file: missing newline");
    }
    std::string out = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return out;
  }

  /// Exactly n raw bytes followed by a '\n'.
  std::string payload(std::size_t n) {
    if (pos_ + n + 1 > text_.size()) {
      throw ParseError("ckpt", "truncated section payload");
    }
    std::string out = text_.substr(pos_, n);
    pos_ += n;
    if (text_[pos_] != '\n') {
      throw ParseError("ckpt", "section payload not newline-terminated");
    }
    ++pos_;
    return out;
  }

  bool at_end() const { return pos_ >= text_.size(); }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Artifact::add(std::string name, std::string payload) {
  sections.emplace_back(std::move(name), std::move(payload));
}

const std::string* Artifact::find_section(std::string_view name) const {
  for (const auto& [n, payload] : sections) {
    if (n == name) return &payload;
  }
  return nullptr;
}

const std::string& Artifact::section(std::string_view name) const {
  const std::string* p = find_section(name);
  SECFLOW_CHECK(p != nullptr,
                "ckpt artifact '" + kind + "' has no section '" +
                    std::string(name) + "'");
  return *p;
}

std::string write_artifact(const Artifact& a) {
  std::ostringstream os;
  os << "SECFLOW-CKPT " << kCkptFormatVersion << ' ' << a.kind << ' '
     << hash_hex(a.key) << '\n';
  for (const auto& [name, payload] : a.sections) {
    os << "SECTION " << name << ' ' << payload.size() << '\n'
       << payload << '\n';
  }
  os << "CHECKSUM " << hash_hex(content_checksum(a)) << '\n';
  os << "END\n";
  return os.str();
}

Artifact parse_artifact(const std::string& text) {
  Cursor cur(text);
  Artifact a;

  {
    std::istringstream hdr(cur.line());
    std::string magic, key_hex;
    int version = 0;
    hdr >> magic >> version >> a.kind >> key_hex;
    if (!hdr || magic != "SECFLOW-CKPT") {
      throw ParseError("ckpt", "bad header (not a SECFLOW-CKPT file)");
    }
    if (version != kCkptFormatVersion) {
      throw ParseError("ckpt", "unsupported format version " +
                                   std::to_string(version));
    }
    a.key = parse_hash_hex(key_hex);
  }

  bool saw_end = false;
  std::uint64_t declared_checksum = 0;
  bool saw_checksum = false;
  while (!saw_end) {
    std::istringstream ls(cur.line());
    std::string kw;
    ls >> kw;
    if (kw == "SECTION") {
      std::string name;
      std::size_t nbytes = 0;
      ls >> name >> nbytes;
      if (!ls || name.empty()) {
        throw ParseError("ckpt", "malformed SECTION header");
      }
      a.sections.emplace_back(std::move(name), cur.payload(nbytes));
    } else if (kw == "CHECKSUM") {
      std::string hex;
      ls >> hex;
      if (!ls) throw ParseError("ckpt", "malformed CHECKSUM line");
      declared_checksum = parse_hash_hex(hex);
      saw_checksum = true;
    } else if (kw == "END") {
      saw_end = true;
    } else {
      throw ParseError("ckpt", "unknown keyword '" + kw + "'");
    }
  }
  if (!saw_checksum) throw ParseError("ckpt", "missing CHECKSUM");
  if (declared_checksum != content_checksum(a)) {
    throw ParseError("ckpt", "checksum mismatch (corrupted artifact)");
  }
  return a;
}

void write_artifact_file(const Artifact& a, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  SECFLOW_CHECK(f.good(), "cannot open for write: " + path);
  f << write_artifact(a);
  SECFLOW_CHECK(f.good(), "write failed: " + path);
}

Artifact parse_artifact_file(const std::string& path) {
  // One read into a buffer sized from the file.
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  SECFLOW_CHECK(f.good(), "cannot open: " + path);
  std::string bytes(static_cast<std::size_t>(f.tellg()), '\0');
  f.seekg(0);
  f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SECFLOW_CHECK(f.good(), "cannot read: " + path);
  return parse_artifact(bytes);
}

}  // namespace secflow
