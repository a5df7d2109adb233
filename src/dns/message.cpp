// lint-hot-path (Message::query and make_response run on every DNS hop;
// the codec below them runs only in DnsServer::serve_wire)
#include "dns/message.h"

#include "util/bytes.h"
#include "util/smallvec.h"

namespace curtain::dns {
namespace {

using util::ByteReader;
using util::ByteWriter;

constexpr uint16_t kPointerMask = 0xc000;
constexpr size_t kMaxPointerChases = 32;

// --- encoding -------------------------------------------------------------

/// Tracks previously written names so later occurrences compress to
/// two-byte pointers (RFC 1035 §4.1.4): one entry per written suffix (a
/// name from some label on), found by comparing labels.
class NameCompressor {
 public:
  void write_name(ByteWriter& out, const DnsName& name) {
    for (size_t i = 0; i < name.label_count(); ++i) {
      if (const Suffix* seen = find(name, i)) {
        out.put_u16(static_cast<uint16_t>(kPointerMask | seen->offset));
        return;
      }
      // Only offsets expressible in 14 bits may be pointer targets.
      if (out.size() < 0x4000) {
        written_.push_back(Suffix{&name, static_cast<uint32_t>(i),
                                  static_cast<uint16_t>(out.size())});
      }
      const std::string_view label = name.label(i);
      out.put_u8(static_cast<uint8_t>(label.size()));
      out.put_string(label);
    }
    out.put_u8(0);  // root
  }

 private:
  struct Suffix {
    const DnsName* name;  ///< borrowed from the message being encoded
    uint32_t from;        ///< first label of the suffix
    uint16_t offset;
  };

  /// The first-written suffix spelling labels [from, end) of `name`.
  const Suffix* find(const DnsName& name, size_t from) const {
    const size_t count = name.label_count() - from;
    for (const Suffix& seen : written_) {
      if (seen.name->label_count() - seen.from != count) continue;
      bool same = true;
      for (size_t k = 0; k < count && same; ++k) {
        same = seen.name->label(seen.from + k) == name.label(from + k);
      }
      if (same) return &seen;
    }
    return nullptr;
  }

  util::SmallVec<Suffix, 32> written_;
};

void write_rdata(ByteWriter& out, NameCompressor& names, const Rdata& rdata) {
  const size_t len_offset = out.size();
  out.put_u16(0);  // RDLENGTH placeholder
  const size_t rdata_start = out.size();
  struct Visitor {
    ByteWriter& out;
    NameCompressor& names;
    void operator()(const ARecord& r) { out.put_u32(r.address.value()); }
    void operator()(const CnameRecord& r) { names.write_name(out, r.target); }
    void operator()(const NsRecord& r) { names.write_name(out, r.nameserver); }
    void operator()(const PtrRecord& r) { names.write_name(out, r.target); }
    void operator()(const TxtRecord& r) {
      for (const auto& s : r.strings) {
        const size_t n = s.size() > 255 ? 255 : s.size();
        out.put_u8(static_cast<uint8_t>(n));
        out.put_string(std::string_view(s).substr(0, n));
      }
    }
    void operator()(const SoaRecord& r) {
      names.write_name(out, r.mname);
      names.write_name(out, r.rname);
      out.put_u32(r.serial);
      out.put_u32(r.refresh);
      out.put_u32(r.retry);
      out.put_u32(r.expire);
      out.put_u32(r.minimum);
    }
  };
  std::visit(Visitor{out, names}, rdata);
  out.patch_u16(len_offset, static_cast<uint16_t>(out.size() - rdata_start));
}

void write_record(ByteWriter& out, NameCompressor& names,
                  const RecordView& rr) {
  names.write_name(out, rr.name);
  out.put_u16(static_cast<uint16_t>(rr.type()));
  out.put_u16(static_cast<uint16_t>(rr.klass));
  out.put_u32(rr.ttl);
  write_rdata(out, names, rr.rdata);
}

uint16_t encode_flags(const Header& h) {
  uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<uint16_t>(static_cast<uint8_t>(h.opcode) & 0x0f) << 11;
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<uint16_t>(static_cast<uint8_t>(h.rcode) & 0x0f);
  return flags;
}

// --- decoding -------------------------------------------------------------

/// Reads a possibly-compressed name starting at the reader's cursor,
/// leaving the cursor just past the name's in-place bytes.
std::optional<DnsName> read_name(ByteReader& reader) {
  DnsName name;
  size_t pointer_chases = 0;
  size_t resume_offset = 0;  // set on first pointer
  bool jumped = false;

  while (true) {
    const uint8_t len = reader.get_u8();
    if (!reader.ok()) return std::nullopt;
    if ((len & 0xc0) == 0xc0) {
      const uint8_t low = reader.get_u8();
      if (!reader.ok()) return std::nullopt;
      if (!jumped) {
        resume_offset = reader.offset();
        jumped = true;
      }
      if (++pointer_chases > kMaxPointerChases) return std::nullopt;
      const size_t target = static_cast<size_t>(len & 0x3f) << 8 | low;
      // Pointers must reference earlier data; forward pointers could loop.
      if (target >= reader.offset() - 2) return std::nullopt;
      reader.seek(target);
      continue;
    }
    if ((len & 0xc0) != 0) return std::nullopt;  // 0x40/0x80 reserved
    if (len == 0) break;
    const std::string_view label = reader.get_view(len);
    if (!reader.ok()) return std::nullopt;
    // append_label enforces the 255-byte wire cap, so an over-long or
    // pointer-inflated name fails here.
    if (!name.append_label(label)) return std::nullopt;
  }
  if (jumped) reader.seek(resume_offset);
  return name;
}

std::optional<Question> read_question(ByteReader& reader) {
  auto name = read_name(reader);
  if (!name) return std::nullopt;
  const uint16_t type = reader.get_u16();
  const uint16_t klass = reader.get_u16();
  if (!reader.ok() || klass != static_cast<uint16_t>(RRClass::kIN)) {
    return std::nullopt;
  }
  return Question{std::move(*name), static_cast<RRType>(type), RRClass::kIN};
}

std::optional<Rdata> read_rdata(ByteReader& reader, RRType type,
                                uint16_t rdlength) {
  const size_t end = reader.offset() + rdlength;
  std::optional<Rdata> rdata;
  switch (type) {
    case RRType::kA: {
      if (rdlength != 4) return std::nullopt;
      rdata = ARecord{net::Ipv4Addr(reader.get_u32())};
      break;
    }
    case RRType::kCNAME: {
      auto target = read_name(reader);
      if (!target) return std::nullopt;
      rdata = CnameRecord{std::move(*target)};
      break;
    }
    case RRType::kNS: {
      auto target = read_name(reader);
      if (!target) return std::nullopt;
      rdata = NsRecord{std::move(*target)};
      break;
    }
    case RRType::kPTR: {
      auto target = read_name(reader);
      if (!target) return std::nullopt;
      rdata = PtrRecord{std::move(*target)};
      break;
    }
    case RRType::kTXT: {
      TxtRecord txt;
      while (reader.ok() && reader.offset() < end) {
        const uint8_t n = reader.get_u8();
        if (reader.offset() + n > end) return std::nullopt;
        txt.strings.push_back(reader.get_string(n));
      }
      rdata = std::move(txt);
      break;
    }
    case RRType::kSOA: {
      SoaRecord soa;
      auto mname = read_name(reader);
      auto rname = read_name(reader);
      if (!mname || !rname) return std::nullopt;
      soa.mname = std::move(*mname);
      soa.rname = std::move(*rname);
      soa.serial = reader.get_u32();
      soa.refresh = reader.get_u32();
      soa.retry = reader.get_u32();
      soa.expire = reader.get_u32();
      soa.minimum = reader.get_u32();
      rdata = std::move(soa);
      break;
    }
  }
  if (!rdata || !reader.ok() || reader.offset() != end) return std::nullopt;
  return rdata;
}

constexpr uint16_t kOptType = 41;       // OPT pseudo-RR (RFC 6891)
constexpr uint16_t kEcsOptionCode = 8;   // CLIENT-SUBNET (RFC 7871)
constexpr uint16_t kEdnsUdpPayload = 4096;

/// Parses the OPT pseudo-RR's RDATA, extracting a client-subnet option.
std::optional<EdnsClientSubnet> read_opt_rdata(ByteReader& reader,
                                               uint16_t rdlength) {
  const size_t end = reader.offset() + rdlength;
  std::optional<EdnsClientSubnet> ecs;
  while (reader.ok() && reader.offset() + 4 <= end) {
    const uint16_t code = reader.get_u16();
    const uint16_t length = reader.get_u16();
    if (reader.offset() + length > end) return std::nullopt;
    if (code == kEcsOptionCode) {
      if (length < 4) return std::nullopt;
      const uint16_t family = reader.get_u16();
      EdnsClientSubnet option;
      option.source_prefix_len = reader.get_u8();
      option.scope_prefix_len = reader.get_u8();
      const size_t addr_bytes = length - 4;
      if (family != 1 || addr_bytes > 4 ||
          addr_bytes != (option.source_prefix_len + 7u) / 8u) {
        return std::nullopt;
      }
      uint32_t addr = 0;
      for (size_t i = 0; i < addr_bytes; ++i) {
        addr |= static_cast<uint32_t>(reader.get_u8()) << (8 * (3 - i));
      }
      option.address = net::Ipv4Addr(addr);
      ecs = option;
    } else {
      reader.get_bytes(length);  // skip unknown option
    }
  }
  if (!reader.ok() || reader.offset() != end) return std::nullopt;
  return ecs ? ecs : std::optional<EdnsClientSubnet>{};
}

/// Reads one record. Ordinary records are appended to `section`; an OPT
/// pseudo-RR is folded into `message.ecs` instead.
bool read_record_into(ByteReader& reader, Message& message,
                      Section& section) {
  auto name = read_name(reader);
  if (!name) return false;
  const uint16_t type = reader.get_u16();
  if (!reader.ok()) return false;

  if (type == kOptType) {
    if (!name->is_root()) return false;       // RFC 6891: owner is root
    reader.get_u16();                         // requestor payload size
    reader.get_u32();                         // extended rcode/flags
    const uint16_t rdlength = reader.get_u16();
    if (!reader.ok() || reader.remaining() < rdlength) return false;
    // A second OPT in one message is a protocol violation.
    const auto option = read_opt_rdata(reader, rdlength);
    if (!reader.ok()) return false;
    if (option) {
      if (message.ecs) return false;
      message.ecs = option;
    }
    return true;
  }

  const uint16_t klass = reader.get_u16();
  const uint32_t ttl = reader.get_u32();
  const uint16_t rdlength = reader.get_u16();
  if (!reader.ok() || klass != static_cast<uint16_t>(RRClass::kIN)) {
    return false;
  }
  if (reader.remaining() < rdlength) return false;
  auto rdata = read_rdata(reader, static_cast<RRType>(type), rdlength);
  if (!rdata) return false;
  section.push_back(
      ResourceRecord{std::move(*name), RRClass::kIN, ttl, std::move(*rdata)});
  return true;
}

/// Writes the OPT pseudo-RR carrying a client-subnet option.
void write_opt_record(ByteWriter& out, const EdnsClientSubnet& ecs) {
  out.put_u8(0);  // root owner name
  out.put_u16(kOptType);
  out.put_u16(kEdnsUdpPayload);
  out.put_u32(0);  // extended rcode/flags
  const size_t addr_bytes = (ecs.source_prefix_len + 7u) / 8u;
  out.put_u16(static_cast<uint16_t>(4 + 4 + addr_bytes));  // RDLENGTH
  out.put_u16(kEcsOptionCode);
  out.put_u16(static_cast<uint16_t>(4 + addr_bytes));
  out.put_u16(1);  // family: IPv4
  out.put_u8(ecs.source_prefix_len);
  out.put_u8(ecs.scope_prefix_len);
  const uint32_t masked =
      ecs.source_prefix_len == 0
          ? 0
          : ecs.address.value() & (0xffffffffu << (32 - ecs.source_prefix_len));
  for (size_t i = 0; i < addr_bytes; ++i) {
    out.put_u8(static_cast<uint8_t>(masked >> (8 * (3 - i))));
  }
}

}  // namespace

Message Message::query(uint16_t id, const DnsName& name, RRType type) {
  Message m;
  m.header.id = id;
  m.header.rd = true;
  m.question = Question{name, type, RRClass::kIN};
  return m;
}

Message Message::make_response() const {
  Message m;
  m.header = header;
  m.header.qr = true;
  m.question = question;
  return m;
}

std::optional<RecordView> Message::first_answer(RRType type) const {
  for (const RecordView rr : answers) {
    if (rr.type() == type) return rr;
  }
  return std::nullopt;
}

std::vector<net::Ipv4Addr> Message::answer_addresses() const {
  std::vector<net::Ipv4Addr> out;
  for (const RecordView rr : answers) {
    if (const auto* a = std::get_if<ARecord>(&rr.rdata)) out.push_back(a->address);
  }
  return out;
}

std::vector<uint8_t> encode(const Message& message) {
  ByteWriter out;
  NameCompressor names;
  out.put_u16(message.header.id);
  out.put_u16(encode_flags(message.header));
  out.put_u16(message.question ? 1 : 0);
  out.put_u16(static_cast<uint16_t>(message.answers.size()));
  out.put_u16(static_cast<uint16_t>(message.authorities.size()));
  out.put_u16(static_cast<uint16_t>(message.additionals.size() +
                                    (message.ecs ? 1 : 0)));
  if (const auto& q = message.question) {
    names.write_name(out, q->name);
    out.put_u16(static_cast<uint16_t>(q->type));
    out.put_u16(static_cast<uint16_t>(q->klass));
  }
  for (const RecordView rr : message.answers) write_record(out, names, rr);
  for (const RecordView rr : message.authorities) write_record(out, names, rr);
  for (const RecordView rr : message.additionals) write_record(out, names, rr);
  if (message.ecs) write_opt_record(out, *message.ecs);
  return out.take();
}

std::optional<Message> decode(std::span<const uint8_t> wire) {
  ByteReader reader(wire);
  Message m;
  m.header.id = reader.get_u16();
  const uint16_t flags = reader.get_u16();
  const uint16_t qdcount = reader.get_u16();
  const uint16_t ancount = reader.get_u16();
  const uint16_t nscount = reader.get_u16();
  const uint16_t arcount = reader.get_u16();
  if (!reader.ok()) return std::nullopt;

  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0x0f);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0x0f);

  if (qdcount > 1) return std::nullopt;  // RFC 9619
  if (qdcount == 1) {
    m.question = read_question(reader);
    if (!m.question) return std::nullopt;
  }
  const auto read_section = [&](uint16_t count, Section& section) {
    for (uint16_t i = 0; i < count; ++i) {
      if (!read_record_into(reader, m, section)) return false;
    }
    return true;
  };
  if (!read_section(ancount, m.answers)) return std::nullopt;
  if (!read_section(nscount, m.authorities)) return std::nullopt;
  if (!read_section(arcount, m.additionals)) return std::nullopt;
  return m;
}

}  // namespace curtain::dns
