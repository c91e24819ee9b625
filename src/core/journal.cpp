#include "core/journal.hpp"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "core/fnv1a.hpp"
#include "obs/metrics.hpp"

namespace ecnd {
namespace {

// journal.hits counts cells satisfied from the journal, journal.writes the
// records appended — together they make "did the resume actually resume?"
// answerable from the metrics dump alone.
const obs::Counter kHits = obs::counter("journal.hits");
const obs::Counter kWrites = obs::counter("journal.writes");

// Leading tag on every line; doubles as the journal's format version (a
// future layout change renames it, and old lines simply stop parsing).
constexpr std::string_view kLineTag = "ecnd1";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(std::string_view tok, std::uint64_t& out) {
  if (tok.size() != 16) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + 16, out, 16);
  return res.ec == std::errc{} && res.ptr == tok.data() + 16;
}

}  // namespace

std::string build_fingerprint() {
  if (const char* env = std::getenv("ECND_GIT_SHA"); env && *env) return env;
#ifdef ECND_BUILD_SHA
  return ECND_BUILD_SHA;
#else
  return "unknown";
#endif
}

SweepJournal::SweepJournal() : fingerprint_(build_fingerprint()) {}

SweepJournal::~SweepJournal() {
  if (file_) std::fclose(file_);
}

void SweepJournal::open(const std::string& path, bool resume) {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
  entries_.clear();
  fingerprint_ = build_fingerprint();
  if (resume) load(path);
  file_ = std::fopen(path.c_str(), resume ? "ab" : "wb");
  if (!file_) {
    throw std::runtime_error("journal: cannot open " + path + " for writing");
  }
}

void SweepJournal::load(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) return;  // nothing to resume from: a clean first run
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, got);
  }
  std::fclose(in);

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // torn final line: skip it
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    // ecnd1 <16-hex> <status> <payload...>  — anything else is skipped, so a
    // corrupted or foreign line degrades to one recomputed cell, not a
    // failed resume.
    if (line.size() < kLineTag.size() + 1 + 16 + 1 ||
        line.substr(0, kLineTag.size()) != kLineTag ||
        line[kLineTag.size()] != ' ') {
      continue;
    }
    std::uint64_t key = 0;
    if (!parse_hex16(line.substr(kLineTag.size() + 1, 16), key)) continue;
    std::string_view rest = line.substr(kLineTag.size() + 1 + 16);
    if (rest.empty() || rest.front() != ' ') continue;
    rest.remove_prefix(1);
    const std::size_t sp = rest.find(' ');
    const std::string_view status = rest.substr(0, sp);
    if (status == "done") {
      const std::string_view payload =
          sp == std::string_view::npos ? std::string_view{}
                                       : rest.substr(sp + 1);
      // Later lines win: a cell re-recorded after a quarantine retry (or a
      // duplicated append) must resolve to its newest payload.
      entries_[key] = std::string(payload);
    } else if (status == "quarantined") {
      // A quarantine after a stale `done` invalidates it.
      entries_.erase(key);
    }
  }
  if (pos < text.size()) {
    // The final line has no '\n': a SIGKILL tore it mid-write. Cut it off so
    // the next record starts on its own line instead of extending it.
    std::filesystem::resize_file(path, pos);
  }
}

std::uint64_t SweepJournal::key(std::string_view cell) const {
  std::string bytes;
  bytes.reserve(fingerprint_.size() + 1 + cell.size());
  bytes += fingerprint_;
  bytes += '|';
  bytes += cell;
  return fnv1a64(bytes);
}

const std::string* SweepJournal::find(std::uint64_t key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  kHits.add();
  return &it->second;
}

void SweepJournal::record(std::uint64_t key, bool done,
                          std::string_view payload) {
  if (!file_) return;
  std::string line;
  line.reserve(kLineTag.size() + payload.size() + 32);
  line += kLineTag;
  line += ' ';
  line += hex16(key);
  line += done ? " done " : " quarantined ";
  for (const char c : payload) {
    line += (c == '\n' || c == '\r') ? ' ' : c;
  }
  line += '\n';
  // One fwrite + fflush per record keeps every line intact on disk before
  // the next cell starts; a SIGKILL tears at most the line being written.
  const std::lock_guard<std::mutex> lock(write_mutex_);
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size()) {
    std::fflush(file_);
    kWrites.add();
  }
}

FieldWriter& FieldWriter::f(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (!out_.empty()) out_ += ' ';
  out_.append(buf, res.ptr);
  return *this;
}

FieldWriter& FieldWriter::u(std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (!out_.empty()) out_ += ' ';
  out_.append(buf, res.ptr);
  return *this;
}

std::string_view FieldParser::next_token() {
  while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  if (pos_ >= text_.size()) {
    throw std::runtime_error("journal payload: missing field");
  }
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != ' ') ++pos_;
  return text_.substr(start, pos_ - start);
}

double FieldParser::f() {
  const std::string_view tok = next_token();
  double v = 0.0;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (res.ec != std::errc{} || res.ptr != tok.data() + tok.size()) {
    throw std::runtime_error("journal payload: bad double field");
  }
  return v;
}

std::uint64_t FieldParser::u() {
  const std::string_view tok = next_token();
  std::uint64_t v = 0;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (res.ec != std::errc{} || res.ptr != tok.data() + tok.size()) {
    throw std::runtime_error("journal payload: bad integer field");
  }
  return v;
}

void FieldParser::finish() const {
  for (std::size_t p = pos_; p < text_.size(); ++p) {
    if (text_[p] != ' ') {
      throw std::runtime_error("journal payload: trailing fields");
    }
  }
}

}  // namespace ecnd
