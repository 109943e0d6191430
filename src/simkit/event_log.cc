#include "simkit/event_log.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

#include "simkit/telemetry.h"

namespace fvsst::sim {

namespace {

struct TypeName {
  EventType type;
  std::string_view name;
};

constexpr std::array<TypeName, 23> kTypeNames{{
    {EventType::kRunMeta, "run_meta"},
    {EventType::kTablePoint, "table_point"},
    {EventType::kCycleStart, "cycle_start"},
    {EventType::kDecision, "decision"},
    {EventType::kDowngrade, "downgrade"},
    {EventType::kBudgetChange, "budget_change"},
    {EventType::kIdleEnter, "idle_enter"},
    {EventType::kIdleExit, "idle_exit"},
    {EventType::kInfeasibleBudget, "infeasible_budget"},
    {EventType::kActuation, "actuation"},
    {EventType::kFault, "fault"},
    {EventType::kDegradedMode, "degraded_mode"},
    {EventType::kMessageLost, "message_lost"},
    {EventType::kEpochChange, "epoch_change"},
    {EventType::kSettingsRejected, "settings_rejected"},
    {EventType::kSnapshot, "snapshot"},
    {EventType::kAlertRaised, "alert_raised"},
    {EventType::kAlertCleared, "alert_cleared"},
    {EventType::kMessageRetransmit, "message_retransmit"},
    {EventType::kMessageDuplicate, "message_duplicate"},
    {EventType::kMessageExpired, "message_expired"},
    {EventType::kMessageCorrupt, "message_corrupt"},
    {EventType::kAggregation, "aggregation"},
}};

}  // namespace

std::string_view event_type_name(EventType type) {
  for (const auto& tn : kTypeNames) {
    if (tn.type == type) return tn.name;
  }
  return "?";
}

std::optional<EventType> event_type_from_name(std::string_view name) {
  for (const auto& tn : kTypeNames) {
    if (tn.name == name) return tn.type;
  }
  return std::nullopt;
}

bool Event::has_num(std::string_view key) const {
  for (const auto& [k, v] : num) {
    if (k == key) return true;
  }
  return false;
}

double Event::num_or(std::string_view key, double fallback) const {
  for (const auto& [k, v] : num) {
    if (k == key) return v;
  }
  return fallback;
}

const std::string* Event::find_str(std::string_view key) const {
  for (const auto& [k, v] : str) {
    if (k == key) return &v;
  }
  return nullptr;
}

Event& EventLog::append(double t, EventType type, int cpu) {
  Event e;
  e.t = t;
  e.type = type;
  e.cpu = cpu;
  push(std::move(e));
  return events_.back();
}

void EventLog::push(Event event) {
  // A new append finalizes every earlier event's payload (the fluent .set
  // chain only ever touches the newest), so the pending tail can be sealed
  // into the stream now.
  if (stream_) seal_into_stream();
  if (capacity_ > 0 && events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(event));
}

void EventLog::stream_to(JournalWriter* writer) {
  if (writer && capacity_ > 0) {
    throw std::logic_error(
        "EventLog::stream_to: a capped ring buffer cannot stream (events "
        "already written cannot be dropped)");
  }
  stream_ = writer;
  // Everything but the newest event is already final; hand it over so the
  // in-memory tail shrinks to at most one event immediately.
  while (stream_ && events_.size() > 1) {
    stream_->write(events_.front());
    events_.pop_front();
    ++streamed_;
  }
}

void EventLog::flush_stream() {
  if (!stream_) return;
  seal_into_stream();
  stream_->flush();
}

void EventLog::seal_into_stream() {
  while (!events_.empty()) {
    stream_->write(events_.front());
    events_.pop_front();
    ++streamed_;
  }
}

void EventLog::clear() {
  events_.clear();
  dropped_ = 0;
  streamed_ = 0;
}

// ---------------------------------------------------------------------------
// JSONL export / import
// ---------------------------------------------------------------------------

namespace {

// JSON has no Infinity/NaN literals; clamp to the representable range so
// the journal of an unconstrained run (budget = +inf) stays parseable.
void write_number(std::ostream& out, double v) {
  if (std::isnan(v)) v = 0.0;
  v = std::clamp(v, -std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max());
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.write(buf, res.ptr - buf);
}

void append_number(std::string& out, double v) {
  if (std::isnan(v)) v = 0.0;
  v = std::clamp(v, -std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max());
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

// String-buffer twin of write_json_string; the two must escape
// identically for the streamed and end-of-run journals to match.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          const auto u = static_cast<unsigned char>(c);
          out += "\\u00";
          out += hex[u >> 4];
          out += hex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void append_event_jsonl(std::string& out, const Event& e) {
  out += "{\"t\":";
  append_number(out, e.t);
  out += ",\"type\":";
  append_json_string(out, event_type_name(e.type));
  if (e.cpu >= 0) {
    out += ",\"cpu\":";
    char buf[16];
    const auto res = std::to_chars(buf, buf + sizeof buf, e.cpu);
    out.append(buf, res.ptr);
  }
  for (const auto& [key, value] : e.num) {
    out += ',';
    append_json_string(out, key);
    out += ':';
    append_number(out, value);
  }
  for (const auto& [key, value] : e.str) {
    out += ',';
    append_json_string(out, key);
    out += ':';
    append_json_string(out, value);
  }
  out += "}\n";
}

void write_jsonl(std::ostream& out, const EventLog& log) {
  std::string buf;
  for (const Event& e : log.events()) {
    buf.clear();
    append_event_jsonl(buf, e);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

JsonlStreamWriter::JsonlStreamWriter(std::ostream& out,
                                     std::size_t flush_bytes)
    : out_(out), flush_bytes_(flush_bytes) {
  buffer_.reserve(flush_bytes_ + 256);
}

JsonlStreamWriter::~JsonlStreamWriter() {
  // Destructors cannot throw; durability-sensitive callers flush() first.
  try {
    flush();
  } catch (const JournalWriteError&) {
  }
}

void JsonlStreamWriter::write(const Event& e) {
  append_event_jsonl(buffer_, e);
  ++events_;
  if (buffer_.size() >= flush_bytes_) flush();
}

void JsonlStreamWriter::flush() {
  if (buffer_.empty()) return;
  if (!out_.write(buffer_.data(),
                  static_cast<std::streamsize>(buffer_.size()))) {
    throw JournalWriteError(
        "journal write failed after " + std::to_string(events_) +
        " events: output stream is in a failed state (disk full or closed "
        "sink?)");
  }
  buffer_.clear();
}

// ---------------------------------------------------------------------------
// Binary journal ("FJB1"): length-prefixed records, doubles as raw bits
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[4] = {'F', 'J', 'B', '1'};
/// Sanity bound on one record: a journal event is a handful of short
/// key/value pairs; anything claiming more is corruption, not data.
constexpr std::uint32_t kMaxRecordBytes = 1u << 24;

// The put_* encoders materialize the little-endian bytes in a stack
// buffer and append once: a single length check per field instead of one
// per byte, which is most of the encoder's cost on the hot decision path.
void put_u16(std::string& out, std::uint16_t v) {
  const char buf[2] = {static_cast<char>(v & 0xff),
                       static_cast<char>((v >> 8) & 0xff)};
  out.append(buf, sizeof buf);
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(buf, sizeof buf);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(buf, sizeof buf);
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_key(std::string& out, const std::string& key) {
  if (key.size() > 0xffff) {
    throw JournalWriteError("binary journal: key longer than 65535 bytes");
  }
  put_u16(out, static_cast<std::uint16_t>(key.size()));
  out += key;
}

/// Bounds-checked cursor over one record's payload bytes.
class BinaryDecoder {
 public:
  BinaryDecoder(const char* data, std::size_t size, std::size_t record_no)
      : p_(data), n_(size), record_no_(record_no) {}

  Event decode() {
    Event e;
    const std::uint8_t type = take_u8();
    if (type >= kTypeNames.size()) {
      fail("unknown event type " + std::to_string(type));
    }
    e.type = static_cast<EventType>(type);
    e.t = take_f64();
    e.cpu = static_cast<std::int32_t>(take_u32());
    const std::uint16_t num_count = take_u16();
    const std::uint16_t str_count = take_u16();
    e.num.reserve(num_count);
    for (std::uint16_t i = 0; i < num_count; ++i) {
      std::string key = take_bytes(take_u16());
      const double value = take_f64();
      e.num.emplace_back(std::move(key), value);
    }
    e.str.reserve(str_count);
    for (std::uint16_t i = 0; i < str_count; ++i) {
      std::string key = take_bytes(take_u16());
      std::string value = take_bytes(take_u32());
      e.str.emplace_back(std::move(key), std::move(value));
    }
    if (pos_ != n_) fail("trailing bytes after payload");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("binary journal record " +
                             std::to_string(record_no_) + ": " + why);
  }

  const char* need(std::size_t count) {
    if (n_ - pos_ < count) fail("field runs past the record's end");
    const char* at = p_ + pos_;
    pos_ += count;
    return at;
  }

  std::uint8_t take_u8() {
    return static_cast<std::uint8_t>(*need(1));
  }
  std::uint16_t take_u16() {
    const char* b = need(2);
    return static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(b[0]) |
        (static_cast<std::uint16_t>(static_cast<std::uint8_t>(b[1])) << 8));
  }
  std::uint32_t take_u32() {
    const char* b = need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(b[i]);
    }
    return v;
  }
  double take_f64() {
    const char* b = need(8);
    std::uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) {
      bits = (bits << 8) | static_cast<std::uint8_t>(b[i]);
    }
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string take_bytes(std::size_t count) {
    const char* b = need(count);
    return std::string(b, count);
  }

  const char* p_;
  std::size_t n_;
  std::size_t record_no_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_event_binary(std::string& out, const Event& e) {
  const std::size_t prefix_at = out.size();
  put_u32(out, 0);  // Length back-patched once the payload is built.
  const std::size_t payload_at = out.size();
  out += static_cast<char>(static_cast<std::uint8_t>(e.type));
  put_f64(out, e.t);
  put_u32(out, static_cast<std::uint32_t>(e.cpu));
  if (e.num.size() > 0xffff || e.str.size() > 0xffff) {
    throw JournalWriteError("binary journal: more than 65535 payload fields");
  }
  put_u16(out, static_cast<std::uint16_t>(e.num.size()));
  put_u16(out, static_cast<std::uint16_t>(e.str.size()));
  for (const auto& [key, value] : e.num) {
    put_key(out, key);
    put_f64(out, value);
  }
  for (const auto& [key, value] : e.str) {
    put_key(out, key);
    if (value.size() > 0xffffffffu) {
      throw JournalWriteError("binary journal: oversized string value");
    }
    put_u32(out, static_cast<std::uint32_t>(value.size()));
    out += value;
  }
  const std::uint32_t len =
      static_cast<std::uint32_t>(out.size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    out[prefix_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

BinaryJournalWriter::BinaryJournalWriter(std::ostream& out,
                                         std::size_t flush_bytes)
    : out_(out), flush_bytes_(flush_bytes) {
  buffer_.reserve(flush_bytes_ + 256);
  buffer_.append(kBinaryMagic, sizeof kBinaryMagic);
}

BinaryJournalWriter::~BinaryJournalWriter() {
  try {
    flush();
  } catch (const JournalWriteError&) {
  }
}

void BinaryJournalWriter::write(const Event& e) {
  append_event_binary(buffer_, e);
  ++events_;
  if (buffer_.size() >= flush_bytes_) flush();
}

void BinaryJournalWriter::flush() {
  if (buffer_.empty()) return;
  if (!out_.write(buffer_.data(),
                  static_cast<std::streamsize>(buffer_.size()))) {
    throw JournalWriteError(
        "journal write failed after " + std::to_string(events_) +
        " events: output stream is in a failed state (disk full or closed "
        "sink?)");
  }
  buffer_.clear();
}

void write_binary(std::ostream& out, const EventLog& log) {
  BinaryJournalWriter writer(out);
  for (const Event& e : log.events()) writer.write(e);
  writer.flush();
}

std::size_t for_each_binary(std::istream& in,
                            const std::function<void(Event&&)>& fn,
                            JsonlReadReport* report) {
  if (report) *report = {};
  const auto torn = [&](const std::string& why) {
    if (!report) {
      throw std::runtime_error("binary journal: torn tail: " + why);
    }
    report->torn_tail = true;
    report->error = why;
  };

  char magic[sizeof kBinaryMagic];
  in.read(magic, sizeof magic);
  const auto magic_got = static_cast<std::size_t>(in.gcount());
  if (magic_got == 0) return 0;  // An empty stream is an empty journal.
  if (magic_got < sizeof magic ||
      std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    throw std::runtime_error(
        "binary journal: missing FJB1 magic (not a binary journal?)");
  }

  std::size_t delivered = 0;
  std::string payload;
  while (true) {
    char len_bytes[4];
    in.read(len_bytes, sizeof len_bytes);
    const auto len_got = static_cast<std::size_t>(in.gcount());
    if (len_got == 0) break;  // Clean end of journal.
    if (len_got < sizeof len_bytes) {
      torn("record " + std::to_string(delivered + 1) +
           ": partial length prefix (" + std::to_string(len_got) +
           " of 4 bytes)");
      break;
    }
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<std::uint8_t>(len_bytes[i]);
    }
    if (len == 0 || len > kMaxRecordBytes) {
      throw std::runtime_error("binary journal record " +
                               std::to_string(delivered + 1) +
                               ": implausible length " + std::to_string(len));
    }
    payload.resize(len);
    in.read(payload.data(), static_cast<std::streamsize>(len));
    const auto payload_got = static_cast<std::size_t>(in.gcount());
    if (payload_got < len) {
      torn("record " + std::to_string(delivered + 1) + ": payload cut at " +
           std::to_string(payload_got) + " of " + std::to_string(len) +
           " bytes");
      break;
    }
    fn(BinaryDecoder(payload.data(), len, delivered + 1).decode());
    ++delivered;
  }
  return delivered;
}

EventLog read_binary(std::istream& in) {
  EventLog log;
  for_each_binary(in, [&log](Event&& e) { log.push(std::move(e)); });
  return log;
}

EventLog read_binary(std::istream& in, JsonlReadReport* report) {
  EventLog log;
  JsonlReadReport local;
  for_each_binary(in, [&log](Event&& e) { log.push(std::move(e)); },
                  report ? report : &local);
  return log;
}

JournalFormat detect_journal_format(std::istream& in) {
  char magic[sizeof kBinaryMagic] = {};
  in.read(magic, sizeof magic);
  const auto got = in.gcount();
  in.clear();  // A short read sets eof/fail; rewind needs a clean stream.
  in.seekg(-got, std::ios_base::cur);
  return (got == sizeof magic &&
          std::memcmp(magic, kBinaryMagic, sizeof magic) == 0)
             ? JournalFormat::kBinary
             : JournalFormat::kJsonl;
}

namespace {

/// Minimal parser for the flat one-object-per-line JSON that write_jsonl
/// emits: string and number values only (bool/null tolerated as numbers).
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t line_no)
      : s_(line), line_no_(line_no) {}

  Event parse() {
    Event e;
    bool have_type = false;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      fail("event object is empty");
    }
    while (true) {
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const char c = peek();
      if (c == '"') {
        std::string value = parse_string();
        if (key == "type") {
          const auto type = event_type_from_name(value);
          if (!type) fail("unknown event type '" + value + "'");
          e.type = *type;
          have_type = true;
        } else {
          e.str.emplace_back(key, std::move(value));
        }
      } else {
        const double value = parse_number();
        if (key == "t") {
          e.t = value;
        } else if (key == "cpu") {
          e.cpu = static_cast<int>(value);
        } else {
          e.num.emplace_back(key, value);
        }
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      break;
    }
    expect('}');
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after object");
    if (!have_type) fail("event has no \"type\" field");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("journal line " + std::to_string(line_no_) +
                             ": " + why);
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) {
      fail(std::string("expected '") + c + "' at column " +
           std::to_string(pos_ + 1));
    }
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The writer only \u-escapes control characters; anything wider
          // degrades to '?' rather than growing a UTF-8 encoder here.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    // Tolerate the JSON literals a hand-edited journal might contain.
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return 1.0;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return 0.0;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return 0.0;
    }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number at column " + std::to_string(pos_ + 1));
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  const std::string& s_;
  std::size_t line_no_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace {

bool is_blank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

std::size_t for_each_jsonl(std::istream& in,
                           const std::function<void(Event&&)>& fn,
                           JsonlReadReport* report) {
  std::size_t delivered = 0;
  std::string line;
  std::size_t line_no = 0;
  if (!report) {
    // Strict contract: any malformed line throws immediately.
    while (std::getline(in, line)) {
      ++line_no;
      if (is_blank(line)) continue;
      fn(LineParser(line, line_no).parse());
      ++delivered;
    }
    return delivered;
  }
  *report = {};
  // Hold each parsed line until we know another non-blank line follows: a
  // failure with more data behind it is mid-file corruption (still thrown),
  // a failure on the last line is a torn tail (reported, not thrown).
  std::optional<Event> held;
  std::string held_error;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_blank(line)) continue;
    if (held) {
      fn(*std::move(held));
      ++delivered;
      held.reset();
    } else if (!held_error.empty()) {
      throw std::runtime_error(held_error);  // corruption before the tail
    }
    try {
      held = LineParser(line, line_no).parse();
    } catch (const std::runtime_error& err) {
      held_error = err.what();
    }
  }
  if (held) {
    fn(*std::move(held));
    ++delivered;
  } else if (!held_error.empty()) {
    report->torn_tail = true;
    report->error = held_error;
  }
  return delivered;
}

EventLog read_jsonl(std::istream& in) {
  EventLog log;
  for_each_jsonl(in, [&log](Event&& e) { log.push(std::move(e)); });
  return log;
}

EventLog read_jsonl(std::istream& in, JsonlReadReport* report) {
  EventLog log;
  JsonlReadReport local;
  for_each_jsonl(in, [&log](Event&& e) { log.push(std::move(e)); },
                 report ? report : &local);
  return log;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

namespace {

constexpr double kMicro = 1e6;  ///< Simulated seconds -> trace microseconds.

/// Emits one trace-event object; `extra` is the raw tail after the common
/// fields (caller supplies leading comma-separated members).
class ChromeWriter {
 public:
  explicit ChromeWriter(std::ostream& out) : out_(out) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    meta("process_name", "{\"name\":\"fvsst\"}", /*tid=*/-1);
    meta("thread_name", "{\"name\":\"control loop\"}", /*tid=*/1);
  }

  void finish() { out_ << "\n]}\n"; }

  void slice(std::string_view name, double ts_us, double dur_us,
             const std::string& args_json) {
    begin();
    out_ << "{\"name\":";
    write_json_string(out_, name);
    out_ << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    write_number(out_, ts_us);
    out_ << ",\"dur\":";
    write_number(out_, std::max(dur_us, 0.001));  // visible at any zoom
    if (!args_json.empty()) out_ << ",\"args\":" << args_json;
    out_ << '}';
  }

  void counter(std::string_view name, double ts_us,
               const std::string& args_json) {
    begin();
    out_ << "{\"name\":";
    write_json_string(out_, name);
    out_ << ",\"ph\":\"C\",\"pid\":1,\"ts\":";
    write_number(out_, ts_us);
    out_ << ",\"args\":" << args_json << '}';
  }

  void instant(std::string_view name, double ts_us,
               const std::string& args_json) {
    begin();
    out_ << "{\"name\":";
    write_json_string(out_, name);
    out_ << ",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":";
    write_number(out_, ts_us);
    if (!args_json.empty()) out_ << ",\"args\":" << args_json;
    out_ << '}';
  }

  /// Builds an args object from (key, value) pairs.
  static std::string args(
      std::initializer_list<std::pair<std::string_view, double>> fields) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += k;
      out += "\":";
      char buf[32];
      double clamped = std::isnan(v) ? 0.0 : v;
      clamped = std::clamp(clamped, -std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::max());
      const auto res = std::to_chars(buf, buf + sizeof buf, clamped);
      out.append(buf, res.ptr);
    }
    out += '}';
    return out;
  }

 private:
  void begin() {
    out_ << (first_ ? "\n " : ",\n ");
    first_ = false;
  }

  void meta(std::string_view name, const std::string& args_json, int tid) {
    begin();
    out_ << "{\"name\":";
    write_json_string(out_, name);
    out_ << ",\"ph\":\"M\",\"pid\":1";
    if (tid >= 0) out_ << ",\"tid\":" << tid;
    out_ << ",\"args\":" << args_json << '}';
  }

  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& out, const EventLog& log) {
  ChromeWriter w(out);
  for (const Event& e : log.events()) {
    const double ts = e.t * kMicro;
    switch (e.type) {
      case EventType::kRunMeta:
      case EventType::kTablePoint:
      case EventType::kCycleStart:
      case EventType::kDowngrade:
        break;  // folded into the actuation slice / decision counters
      case EventType::kMessageRetransmit:
      case EventType::kMessageDuplicate:
      case EventType::kMessageExpired:
      case EventType::kMessageCorrupt:
      case EventType::kAggregation:
        break;  // transport and tree-tier detail: no trace track
      case EventType::kDecision: {
        const std::string name = "cpu" + std::to_string(e.cpu) + " freq_mhz";
        w.counter(name, ts,
                  ChromeWriter::args(
                      {{"granted", e.num_or("granted_hz") / 1e6},
                       {"desired", e.num_or("desired_hz") / 1e6}}));
        break;
      }
      case EventType::kBudgetChange:
        w.instant("budget_change", ts,
                  ChromeWriter::args({{"budget_w", e.num_or("budget_w")}}));
        break;
      case EventType::kIdleEnter:
        w.instant("cpu" + std::to_string(e.cpu) + " idle_enter", ts, {});
        break;
      case EventType::kIdleExit:
        w.instant("cpu" + std::to_string(e.cpu) + " idle_exit", ts, {});
        break;
      case EventType::kInfeasibleBudget:
        w.instant("infeasible_budget", ts,
                  ChromeWriter::args(
                      {{"budget_w", e.num_or("budget_w")},
                       {"total_power_w", e.num_or("total_power_w")}}));
        break;
      case EventType::kFault: {
        std::string name = "fault";
        if (const std::string* kind = e.find_str("kind")) {
          name += ' ';
          name += *kind;
        }
        if (const std::string* state = e.find_str("state")) {
          name += ' ';
          name += *state;
        }
        w.instant(name, ts, {});
        break;
      }
      case EventType::kDegradedMode: {
        std::string name = "degraded";
        if (const std::string* reason = e.find_str("reason")) {
          name += ' ';
          name += *reason;
        }
        if (const std::string* state = e.find_str("state")) {
          name += ' ';
          name += *state;
        }
        w.instant(name, ts, {});
        break;
      }
      case EventType::kMessageLost:
        w.instant("message_lost", ts,
                  ChromeWriter::args({{"node", e.num_or("node", -1.0)}}));
        break;
      case EventType::kEpochChange: {
        std::string name = "epoch_change";
        if (const std::string* reason = e.find_str("reason")) {
          name += ' ';
          name += *reason;
        }
        w.instant(name, ts,
                  ChromeWriter::args(
                      {{"epoch", e.num_or("epoch")},
                       {"coordinator", e.num_or("coordinator", -1.0)}}));
        break;
      }
      case EventType::kSettingsRejected:
        w.instant("settings_rejected", ts,
                  ChromeWriter::args({{"node", e.num_or("node", -1.0)},
                                      {"msg_epoch", e.num_or("msg_epoch")},
                                      {"epoch", e.num_or("epoch")}}));
        break;
      case EventType::kSnapshot: {
        std::string name = "snapshot";
        if (const std::string* op = e.find_str("op")) {
          name += ' ';
          name += *op;
        }
        w.instant(name, ts,
                  ChromeWriter::args({{"epoch", e.num_or("epoch")},
                                      {"round", e.num_or("round")}}));
        break;
      }
      case EventType::kAlertRaised:
      case EventType::kAlertCleared: {
        std::string name = e.type == EventType::kAlertRaised
                               ? "alert_raised"
                               : "alert_cleared";
        if (const std::string* rule = e.find_str("rule")) {
          name += ' ';
          name += *rule;
        }
        w.instant(name, ts,
                  ChromeWriter::args({{"value", e.num_or("value")}}));
        break;
      }
      case EventType::kActuation: {
        if (const std::string* stage = e.find_str("stage")) {
          if (*stage == "node_apply") {
            w.instant("node" +
                          std::to_string(static_cast<int>(e.num_or("node"))) +
                          " apply",
                      ts, {});
            w.counter("cluster power (W)", ts,
                      ChromeWriter::args(
                          {{"power", e.num_or("cluster_power_w")}}));
          }
          break;
        }
        // The engine's end-of-cycle record: measured stage wall costs as
        // nested slices at the cycle instant, power/budget as a counter.
        const double est = e.num_or("estimate_s") * kMicro;
        const double pol = e.num_or("policy_s") * kMicro;
        const double act = e.num_or("actuate_s") * kMicro;
        w.slice("cycle", ts, est + pol + act,
                ChromeWriter::args(
                    {{"total_power_w", e.num_or("total_power_w")},
                     {"budget_w", e.num_or("budget_w")},
                     {"feasible", e.num_or("feasible", 1.0)},
                     {"downgrade_steps", e.num_or("downgrade_steps")}}));
        w.slice("estimate", ts, est, {});
        w.slice("policy", ts + est, pol, {});
        w.slice("actuate", ts + est + pol, act, {});
        w.counter("cpu power (W)", ts,
                  ChromeWriter::args(
                      {{"power", e.num_or("total_power_w")},
                       {"budget", e.num_or("budget_w")}}));
        break;
      }
    }
  }
  w.finish();
}

// ---------------------------------------------------------------------------
// Invariant checks
// ---------------------------------------------------------------------------

namespace {

std::string at_time(double t) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, t);
  return " at t=" + std::string(buf, res.ptr) + "s";
}

constexpr double kPowerTolW = 1e-6;
constexpr double kVoltTol = 1e-9;

}  // namespace

void JournalChecker::observe(const Event& e) {
  if (e.t > last_event_t_) last_event_t_ = e.t;
  switch (e.type) {
    case EventType::kRunMeta:
      // First run_meta wins, matching the historical whole-journal scan.
      if (!have_meta_) {
        have_meta_ = true;
        meta_t_sample_ = e.num_or("t_sample_s");
        meta_multiplier_ = e.num_or("multiplier");
        meta_t_restarts_ = e.num_or("t_restarts");
        meta_failover_window_ = e.num_or("failover_window_s");
        meta_convergence_window_ = e.num_or("convergence_window_s");
        meta_nodes_ = e.num_or("nodes");
      }
      return;

    case EventType::kMessageLost:
    case EventType::kMessageCorrupt:
    case EventType::kMessageExpired:
      // 6. Every drop (including a retransmission's) is a disturbance: the
      //    convergence clock restarts at the *last* one, after which every
      //    message goes through and repair is bounded.
      any_disturbance_ = true;
      if (e.t > last_disturb_t_) last_disturb_t_ = e.t;
      return;

    case EventType::kTablePoint:
      tables_[e.cpu][e.num_or("hz")] = e.num_or("volts");
      return;

    case EventType::kDecision: {
      // 2. Voltage is the table minimum for every granted frequency.
      const auto table_it = tables_.find(e.cpu);
      if (table_it == tables_.end()) return;
      ++checks_run_;
      const double hz = e.num_or("granted_hz");
      const auto point_it = table_it->second.find(hz);
      if (point_it == table_it->second.end()) {
        voltage_violations_.push_back(
            "cpu" + std::to_string(e.cpu) + " granted " +
            std::to_string(hz / 1e6) + " MHz" + at_time(e.t) +
            ", not an operating point of its table");
        return;
      }
      const double table_volts = point_it->second;
      if (std::abs(e.num_or("volts") - table_volts) > kVoltTol) {
        voltage_violations_.push_back(
            "cpu" + std::to_string(e.cpu) + at_time(e.t) + ": voltage " +
            std::to_string(e.num_or("volts")) + " V is not the table minimum " +
            std::to_string(table_volts) + " V for its granted frequency");
      }
      return;
    }

    case EventType::kCycleStart: {
      // 3. Record each budget-cycle -> next-timer-cycle gap; judged at
      //    finish() once we know whether the journal declares a
      //    tick-counted period (there is one gap per budget trigger, so
      //    this list stays tiny).
      const std::string* trigger = e.find_str("trigger");
      if (!trigger) return;
      if (*trigger == "budget") {
        pending_budget_cycle_t_ = e.t;
      } else if (*trigger == "timer" && pending_budget_cycle_t_ >= 0.0) {
        restart_gaps_.emplace_back(pending_budget_cycle_t_, e.t);
        pending_budget_cycle_t_ = -1.0;
      }
      return;
    }

    case EventType::kEpochChange: {
      // 4. Announced epochs never regress.
      any_epoch_data_ = true;
      saw_announcement_ = true;
      ++checks_run_;
      const double epoch = e.num_or("epoch");
      if (epoch < last_announced_) {
        epoch_violations_.push_back(
            "epoch regressed" + at_time(e.t) + ": coordinator " +
            std::to_string(static_cast<int>(e.num_or("coordinator", -1.0))) +
            " announced epoch " + std::to_string(epoch) + " after epoch " +
            std::to_string(last_announced_));
      }
      last_announced_ = std::max(last_announced_, epoch);
      max_announced_ = std::max(max_announced_, epoch);
      return;
    }

    case EventType::kBudgetChange: {
      // 5. A newer limit supersedes (and closes) any open window; a drop
      //    opens the next one.
      const double budget = e.num_or("budget_w");
      if (window_open_) {
        window_open_ = false;
        ++checks_run_;
      }
      const bool drop = prev_budget_ >= 0.0 && budget < prev_budget_;
      prev_budget_ = budget;
      if (drop && have_meta_ && meta_failover_window_ > 0.0) {
        window_open_ = true;
        window_t_ = e.t;
        window_deadline_ = e.t + meta_failover_window_;
        window_budget_ = budget;
      }
      return;
    }

    case EventType::kActuation: {
      const std::string* stage = e.find_str("stage");
      if (!stage) {
        // 1. Budget compliance: whenever the scheduler claims
        //    feasibility, the total it granted must fit under the budget
        //    it was given.
        ++checks_run_;
        const double total = e.num_or("total_power_w");
        const double budget =
            e.num_or("budget_w", std::numeric_limits<double>::max());
        if (e.num_or("feasible", 1.0) != 0.0 && total > budget + kPowerTolW) {
          budget_violations_.push_back(
              "feasible actuation exceeds budget" + at_time(e.t) + ": " +
              std::to_string(total) + " W > " + std::to_string(budget) +
              " W");
        }
        return;
      }
      if (*stage != "node_apply") return;
      // 4. Per-node applied epochs never regress and never come from an
      //    unannounced epoch.
      if (e.has_num("epoch")) {
        any_epoch_data_ = true;
        ++checks_run_;
        const double epoch = e.num_or("epoch");
        const int node = static_cast<int>(e.num_or("node", -1.0));
        auto [it, inserted] = node_epoch_.try_emplace(node, epoch);
        if (!inserted) {
          if (epoch < it->second) {
            epoch_violations_.push_back(
                "node" + std::to_string(node) + at_time(e.t) +
                " applied settings from deposed epoch " +
                std::to_string(epoch) + " after epoch " +
                std::to_string(it->second));
          }
          it->second = std::max(it->second, epoch);
        }
        if (saw_announcement_ && epoch > max_announced_) {
          epoch_violations_.push_back(
              "node" + std::to_string(node) + at_time(e.t) +
              " applied settings from unannounced epoch " +
              std::to_string(epoch) + " (highest announced: " +
              std::to_string(max_announced_) + ")");
        }
      }
      // 6. Monotone applied sequence per (node, epoch): the reliable
      //    transport's effectively-once guarantee — a duplicate or stale
      //    reordered settings message must never be applied.
      if (e.has_num("seq") && e.has_num("epoch")) {
        ++checks_run_;
        const int node = static_cast<int>(e.num_or("node", -1.0));
        const double epoch = e.num_or("epoch");
        const double seq = e.num_or("seq");
        auto [it, inserted] =
            node_seq_.try_emplace(node, std::make_pair(epoch, seq));
        if (!inserted) {
          if (epoch == it->second.first && seq <= it->second.second) {
            transport_violations_.push_back(
                "node" + std::to_string(node) + at_time(e.t) +
                " applied seq " + std::to_string(seq) +
                " at or below the already-applied seq " +
                std::to_string(it->second.second) + " in epoch " +
                std::to_string(epoch) + " (duplicate or stale apply)");
          }
          if (epoch > it->second.first ||
              (epoch == it->second.first && seq > it->second.second)) {
            it->second = {epoch, seq};
          }
        }
      }
      // 6. Convergence bookkeeping: remember each node's earliest apply
      //    after the latest disturbance seen so far.
      {
        const int node = static_cast<int>(e.num_or("node", -1.0));
        auto [it, inserted] = node_apply_after_.try_emplace(node, e.t);
        if (!inserted && it->second < last_disturb_t_) it->second = e.t;
      }
      // 5. The open window closes on the first node_apply past the
      //    deadline (violation) or the first one back under the limit.
      if (window_open_) {
        if (e.t > window_deadline_) {
          ++checks_run_;
          failover_violations_.push_back(
              "cluster still over the " + std::to_string(window_budget_) +
              " W budget " + std::to_string(meta_failover_window_) +
              "s after the drop" + at_time(window_t_) +
              " (failover window missed)");
          window_open_ = false;
        } else if (e.num_or("cluster_power_w",
                            std::numeric_limits<double>::max()) <=
                   window_budget_ + kPowerTolW) {
          ++checks_run_;
          window_open_ = false;
        }
      }
      return;
    }

    default:
      return;
  }
}

JournalCheckReport JournalChecker::finish() {
  JournalCheckReport report;
  report.checks_run = checks_run_;

  // 3. T restarts after a budget trigger (only meaningful for daemons
  //    with tick-counted periods, declared via run_meta t_restarts = 1).
  std::vector<std::string> restart_violations;
  const bool declares_period = have_meta_ && meta_t_restarts_ != 0.0 &&
                               meta_t_sample_ > 0.0 && meta_multiplier_ > 0.0;
  if (declares_period) {
    // After a budget cycle the tick count restarts, so the next timer
    // cycle comes at least (n - 1) ticks later.
    const double min_gap = (meta_multiplier_ - 1.0) * meta_t_sample_ - 1e-9;
    for (const auto& [budget_t, timer_t] : restart_gaps_) {
      ++report.checks_run;
      if (timer_t - budget_t < min_gap) {
        restart_violations.push_back(
            "timer cycle" + at_time(timer_t) + " fired only " +
            std::to_string(timer_t - budget_t) +
            "s after the budget trigger" + at_time(budget_t) +
            "; T did not restart");
      }
    }
  }

  // Skips and violations keep check_journal's historical 1..5 ordering.
  if (tables_.empty()) {
    report.skipped.push_back(
        "voltage-table check: no table_point events in journal");
  }
  if (!declares_period) {
    report.skipped.push_back(
        "T-restart check: journal does not declare a tick-counted period");
  }
  if (!any_epoch_data_) {
    report.skipped.push_back("epoch-fence check: no epoch data in journal");
  }
  if (!have_meta_ || meta_failover_window_ <= 0.0) {
    report.skipped.push_back(
        "failover-window check: journal does not declare failover_window_s");
  } else if (window_open_) {
    report.skipped.push_back(
        "failover-window check: journal ends inside the window of the "
        "budget drop" + at_time(window_t_));
    window_open_ = false;
  }

  // 6. Bounded convergence, judged at finish() once the last disturbance
  //    is known.  Monotone-seq violations were collected inline.
  if (!have_meta_ || meta_convergence_window_ <= 0.0) {
    report.skipped.push_back(
        "transport-convergence check: journal does not declare "
        "convergence_window_s");
  } else if (!any_disturbance_) {
    report.skipped.push_back(
        "transport-convergence check: no channel disturbances in journal");
  } else {
    const double deadline = last_disturb_t_ + meta_convergence_window_;
    if (last_event_t_ < deadline) {
      report.skipped.push_back(
          "transport-convergence check: journal ends inside the "
          "convergence window of the disturbance" + at_time(last_disturb_t_));
    } else {
      for (int n = 0; n < static_cast<int>(meta_nodes_); ++n) {
        ++report.checks_run;
        const auto it = node_apply_after_.find(n);
        const double applied =
            it == node_apply_after_.end() ? -1.0 : it->second;
        if (applied < last_disturb_t_ || applied > deadline) {
          transport_violations_.push_back(
              "node" + std::to_string(n) +
              " did not re-apply settings within " +
              std::to_string(meta_convergence_window_) +
              "s of the last channel disturbance" + at_time(last_disturb_t_) +
              " (bounded convergence missed)");
        }
      }
    }
  }

  const auto take = [&report](std::vector<std::string>& from) {
    for (std::string& v : from) report.violations.push_back(std::move(v));
    from.clear();
  };
  take(budget_violations_);
  take(voltage_violations_);
  take(restart_violations);
  take(epoch_violations_);
  take(failover_violations_);
  take(transport_violations_);
  return report;
}

JournalCheckReport check_journal(const EventLog& log) {
  JournalChecker checker;
  for (const Event& e : log.events()) checker.observe(e);
  return checker.finish();
}

// ---------------------------------------------------------------------------
// Journal diff
// ---------------------------------------------------------------------------

JournalDiff diff_journals(const EventLog& a, const EventLog& b) {
  JournalDiff diff;
  for (const auto& tn : kTypeNames) {
    JournalDiff::TypeCount tc;
    tc.type = std::string(tn.name);
    for (const Event& e : a.events()) {
      if (e.type == tn.type) ++tc.a;
    }
    for (const Event& e : b.events()) {
      if (e.type == tn.type) ++tc.b;
    }
    if (tc.a > 0 || tc.b > 0) diff.type_counts.push_back(std::move(tc));
  }

  std::vector<const Event*> da, db;
  for (const Event& e : a.events()) {
    if (e.type == EventType::kDecision) da.push_back(&e);
  }
  for (const Event& e : b.events()) {
    if (e.type == EventType::kDecision) db.push_back(&e);
  }
  const std::size_t n = std::min(da.size(), db.size());
  diff.decisions_compared = n;
  diff.decisions_unmatched = std::max(da.size(), db.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    if (da[i]->cpu != db[i]->cpu ||
        da[i]->num_or("granted_hz") != db[i]->num_or("granted_hz")) {
      ++diff.decisions_differing;
      if (diff.first_divergence_t < 0.0) {
        diff.first_divergence_t = da[i]->t;
        diff.first_divergence_cpu = da[i]->cpu;
      }
    }
  }
  return diff;
}

}  // namespace fvsst::sim
