#include "dns/authoritative.h"

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
  soa_rr_ = ResourceRecord::soa(apex_, soa, 3600);
}

void AuthoritativeServer::add_record(ResourceRecord rr) {
  records_[{rr.name, rr.type()}].push_back(std::move(rr));
}

void AuthoritativeServer::delegate(const DnsName& child_apex,
                                   const DnsName& ns_name, net::Ipv4Addr ns_addr,
                                   uint32_t ttl_s) {
  Delegation d;
  d.apex = child_apex;
  d.ns = ResourceRecord::ns(child_apex, ns_name, ttl_s);
  d.glue = ResourceRecord::a(ns_name, ns_addr, ttl_s);
  delegations_.push_back(std::move(d));
}

void AuthoritativeServer::set_dynamic_handler(DynamicHandler handler,
                                              uint32_t dynamic_ttl_s) {
  dynamic_handler_ = std::move(handler);
  dynamic_ttl_s_ = dynamic_ttl_s;
}

void AuthoritativeServer::set_soa(SoaRecord soa, uint32_t ttl_s) {
  soa_rr_ = ResourceRecord::soa(apex_, std::move(soa), ttl_s);
}

const AuthoritativeServer::Delegation* AuthoritativeServer::find_delegation(
    const DnsName& name) const {
  for (const auto& d : delegations_) {
    if (name.is_within(d.apex)) return &d;
  }
  return nullptr;
}

std::vector<ResourceRecord> AuthoritativeServer::find_static(
    const DnsName& name, RRType type) const {
  const auto it = records_.find({name, type});
  return it == records_.end() ? std::vector<ResourceRecord>{} : it->second;
}

bool AuthoritativeServer::name_exists(const DnsName& name) const {
  for (const auto& [key, rrs] : records_) {
    if (key.first == name && !rrs.empty()) return true;
  }
  return false;
}

void AuthoritativeServer::answer_question(
    const Question& question, net::Ipv4Addr source_ip,
    const std::optional<EdnsClientSubnet>& ecs, net::SimTime now,
    net::Rng& rng, Message& response) {
  DnsName qname = question.name;
  if (!qname.is_within(apex_)) {
    response.header.rcode = Rcode::kRefused;
    return;
  }

  for (size_t chase = 0; chase < kMaxCnameChase; ++chase) {
    if (const Delegation* d = find_delegation(qname)) {
      // Referral: not authoritative for the child zone.
      response.header.aa = false;
      response.authorities.push_back(d->ns);
      response.additionals.push_back(d->glue);
      return;
    }

    response.header.aa = true;
    auto exact = find_static(qname, question.type);
    if (!exact.empty()) {
      for (auto& rr : exact) response.answers.push_back(std::move(rr));
      return;
    }

    // In-zone CNAME: append and chase if the target stays in-zone.
    auto cnames = find_static(qname, RRType::kCNAME);
    if (!cnames.empty() && question.type != RRType::kCNAME) {
      const auto& target = std::get<CnameRecord>(cnames.front().rdata).target;
      response.answers.push_back(cnames.front());
      if (!target.is_within(apex_)) return;  // resolver continues elsewhere
      qname = target;
      continue;
    }

    if (dynamic_handler_) {
      auto dynamic = dynamic_handler_(Question{qname, question.type, question.klass},
                                      source_ip, ecs, now, rng);
      if (dynamic) {
        for (auto& rr : *dynamic) {
          if (rr.ttl == 0) rr.ttl = dynamic_ttl_s_;
          response.answers.push_back(std::move(rr));
        }
        return;
      }
    }

    // NODATA (name exists, type doesn't) vs NXDOMAIN.
    if (!name_exists(qname)) response.header.rcode = Rcode::kNxDomain;
    response.authorities.push_back(soa_rr_);
    return;
  }
  response.header.rcode = Rcode::kServFail;  // CNAME chain too long
}

ServedResponse AuthoritativeServer::serve(const Message& query,
                                          net::Ipv4Addr source_ip,
                                          net::SimTime now, net::Rng& rng) {
  CURTAIN_DCHECK(!query.questions.empty()) << "query carries no question";
  queries_served_.fetch_add(1, std::memory_order_relaxed);
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
  answer_question(query.questions.front(), source_ip, query.ecs, now, rng,
                  served.message);
  span.finish(now.millis());
  return served;
}

}  // namespace curtain::dns
