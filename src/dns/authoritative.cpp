// lint-hot-path (every referral and zone answer; see dns/authoritative.h)
#include "dns/authoritative.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"

namespace curtain::dns {
namespace {

constexpr size_t kMaxCnameChase = 8;

}  // namespace

AuthoritativeServer::AuthoritativeServer(DnsName apex, net::NodeId node,
                                         net::Ipv4Addr ip)
    : apex_(std::move(apex)), node_(node), ip_(ip) {
  SoaRecord soa;
  soa.mname = *apex_.child("ns1");
  soa.rname = *apex_.child("hostmaster");
  soa.serial = 2014030100;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 300;
  soa_ = Rrset({ResourceRecord::soa(apex_, soa, 3600)});
}

void AuthoritativeServer::add_record(ResourceRecord rr) {
  data_changed("record added");
  const RRType type = rr.type();
  for (Rrset& rrset : rrsets_) {
    if (rrset.front().name == rr.name && rrset.front().type() == type) {
      rrset.add(std::move(rr));
      return;
    }
  }
  rrsets_.emplace_back().add(std::move(rr));
}

void AuthoritativeServer::delegate(const DnsName& child_apex,
                                   const DnsName& ns_name, net::Ipv4Addr ns_addr,
                                   uint32_t ttl_s) {
  data_changed("delegation added");
  Delegation d;
  d.apex = child_apex;
  d.ns = Rrset({ResourceRecord::ns(child_apex, ns_name, ttl_s)});
  d.glue = Rrset({ResourceRecord::a(ns_name, ns_addr, ttl_s)});
  delegations_.push_back(std::move(d));
}

void AuthoritativeServer::set_dynamic_handler(DynamicHandler handler,
                                              uint32_t dynamic_ttl_s) {
  dynamic_handler_ = std::move(handler);
  dynamic_ttl_s_ = dynamic_ttl_s;
}

void AuthoritativeServer::set_soa(SoaRecord soa, uint32_t ttl_s) {
  data_changed("SOA replaced");
  soa_ = Rrset({ResourceRecord::soa(apex_, std::move(soa), ttl_s)});
}

void AuthoritativeServer::collect_names(NameTable& names) const {
  names.add(apex_);
  for (const Rrset& rrset : rrsets_) rrset.collect_names(names);
  for (const Delegation& d : delegations_) {
    d.ns.collect_names(names);
    d.glue.collect_names(names);
  }
  soa_.collect_names(names);
}

void AuthoritativeServer::data_changed(const char* what) {
  CURTAIN_CHECK(!bound_) << what << " on zone " << apex_.to_string()
                         << " after it was bound to its World's name table";
  indexed_.store(false, std::memory_order_relaxed);
}

void AuthoritativeServer::bind_names(const NameTable& names) {
  CURTAIN_CHECK(names_ == nullptr)
      << "zone " << apex_.to_string() << " bound twice";
  index(names);
  bound_ = true;
  indexed_.store(true, std::memory_order_release);
}

void AuthoritativeServer::index_own_names() {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexed_.load(std::memory_order_relaxed)) return;
  NameTable& names = own_names_.emplace_back();
  collect_names(names);
  names.freeze();
  index(names);
  indexed_.store(true, std::memory_order_release);
}

void AuthoritativeServer::index(const NameTable& names) {
  CURTAIN_CHECK(names.frozen()) << "binding a zone to an unfrozen name table";
  const auto intern_static = [&](DnsName& name) {
    names.intern(name);
    CURTAIN_CHECK(name.table() == &names)
        << name.to_string() << " is missing from the zone's name table";
  };
  intern_static(apex_);
  for (Rrset& rrset : rrsets_) rrset.intern_names(names);
  for (Delegation& d : delegations_) {
    intern_static(d.apex);
    d.ns.intern_names(names);
    d.glue.intern_names(names);
  }
  soa_.intern_names(names);

  const auto key_less = [](const Rrset& a, const Rrset& b) {
    const NameId x = a.front().name.id();
    const NameId y = b.front().name.id();
    return x < y || (x == y && a.front().type() < b.front().type());
  };
  std::sort(rrsets_.begin(), rrsets_.end(), key_less);
  slots_.assign(names.size(), NameSlot{});
  for (uint32_t i = 0; i < rrsets_.size(); ++i) {
    const NameId id = rrsets_[i].front().name.id();
    CURTAIN_CHECK(id != kNoNameId)
        << rrsets_[i].front().name.to_string()
        << " is missing from the zone's name table";
    NameSlot& slot = slots_[id];
    if (slot.first_rrset == kNone) slot.first_rrset = i;
    ++slot.rrset_count;
  }
  if (!delegations_.empty()) {
    // A name is delegated by the first-added delegation at or above it:
    // the one a scan of delegations_ in add order would find.
    std::vector<uint32_t> at_apex(names.size(), kNone);
    for (uint32_t i = 0; i < delegations_.size(); ++i) {
      uint32_t& first = at_apex[delegations_[i].apex.id()];
      first = std::min(first, i);
    }
    for (NameId id = 0; id < names.size(); ++id) {
      uint32_t first = at_apex[id];
      for (NameId at = id; at != names.parent(at);) {
        at = names.parent(at);
        first = std::min(first, at_apex[at]);
      }
      slots_[id].delegation = first;
    }
  }
  names_ = &names;
}

const AuthoritativeServer::Delegation* AuthoritativeServer::find_delegation(
    NameId id) const {
  const uint32_t delegation = slots_[id].delegation;
  return delegation == kNone ? nullptr : &delegations_[delegation];
}

const Rrset* AuthoritativeServer::find_static(NameId id, RRType type) const {
  if (id == kNoNameId) return nullptr;
  const NameSlot& slot = slots_[id];
  for (uint32_t i = 0; i < slot.rrset_count; ++i) {
    const Rrset& rrset = rrsets_[slot.first_rrset + i];
    if (rrset.front().type() == type) return &rrset;
  }
  return nullptr;
}

void AuthoritativeServer::answer_question(
    const Question& question, net::Ipv4Addr source_ip,
    const std::optional<EdnsClientSubnet>& ecs, net::SimTime now,
    net::Rng& rng, Message& response) {
  // The name being answered: the question's, then each in-zone CNAME
  // target, read in place from the zone's own rrsets.
  const DnsName* qname = &question.name;
  if (!qname->is_within(apex_)) {
    response.header.rcode = Rcode::kRefused;
    return;
  }

  for (size_t chase = 0; chase < kMaxCnameChase; ++chase) {
    // A name that is not static has no rrsets here, and is delegated
    // wherever its deepest static ancestor is: every delegation apex is
    // static.
    const NameId id = names_->find(*qname);
    if (const Delegation* d =
            find_delegation(id != kNoNameId ? id : names_->closest(*qname))) {
      // Referral: not authoritative for the child zone.
      response.header.aa = false;
      response.authorities.append(d->ns);
      response.additionals.append(d->glue);
      return;
    }

    response.header.aa = true;
    if (const Rrset* exact = find_static(id, question.type)) {
      response.answers.append(*exact);
      return;
    }

    // In-zone CNAME: append its first record and chase if the target
    // stays in-zone.
    const Rrset* cnames = find_static(id, RRType::kCNAME);
    if (cnames != nullptr && question.type != RRType::kCNAME) {
      const auto& target = std::get<CnameRecord>(cnames->front().rdata).target;
      response.answers.append(*cnames, 0, 1);
      if (!target.is_within(apex_)) return;  // resolver continues elsewhere
      qname = &target;
      continue;
    }

    if (dynamic_handler_) {
      DynamicAnswer dynamic =
          qname == &question.name
              ? dynamic_handler_(question, source_ip, ecs, now, rng)
              : dynamic_handler_(
                    Question{*qname, question.type, question.klass},
                    source_ip, ecs, now, rng);
      if (dynamic.shared != nullptr) {
        CURTAIN_DCHECK(dynamic.shared->min_ttl() != 0 || dynamic_ttl_s_ == 0)
            << "shared dynamic rrset with TTL 0 on a zone whose dynamic TTL "
            << "is " << dynamic_ttl_s_;
        response.answers.append(*dynamic.shared);
        return;
      }
      if (dynamic.owned) {
        for (auto& rr : *dynamic.owned) {
          if (rr.ttl == 0) rr.ttl = dynamic_ttl_s_;
          response.answers.push_back(std::move(rr));
        }
        return;
      }
    }

    // NODATA (name exists, type doesn't) vs NXDOMAIN.
    if (id == kNoNameId || slots_[id].rrset_count == 0) {
      response.header.rcode = Rcode::kNxDomain;
    }
    response.authorities.append(soa_);
    return;
  }
  response.header.rcode = Rcode::kServFail;  // CNAME chain too long
}

ServedResponse AuthoritativeServer::serve(const Message& query,
                                          net::Ipv4Addr source_ip,
                                          net::SimTime now, net::Rng& rng,
                                          net::DeviceState& /*device*/) {
  CURTAIN_DCHECK(query.question.has_value()) << "query carries no question";
  if (!indexed_.load(std::memory_order_acquire)) index_own_names();
  {
    // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
    struct AdnsMetrics {
      obs::Counter& queries = obs::metrics().counter(
          "curtain_dns_authoritative_queries_total",
          "queries answered by authoritative servers");
    };
    static thread_local obs::SheafLocal<AdnsMetrics> adns_metrics;
    adns_metrics.get().queries.inc();
  }
  // Hop marker: server-side cost is charged by the caller's transport
  // accounting, so the span is instantaneous in virtual time; it exists to
  // show the hop (and to parent the CDN mapping span) in the trace tree.
  obs::ScopedSpan span("authoritative", now.millis());
  ServedResponse served;
  served.message = query.make_response();
  served.message.header.ra = false;  // authoritative servers do not recurse
  answer_question(*query.question, source_ip, query.ecs, now, rng,
                  served.message);
  span.finish(now.millis());
  return served;
}

}  // namespace curtain::dns
