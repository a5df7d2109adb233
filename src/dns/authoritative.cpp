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
  soa_ = Rrset({ResourceRecord::soa(apex_, soa, 3600)});
}

void AuthoritativeServer::add_record(ResourceRecord rr) {
  records_[{rr.name, rr.type()}].add(std::move(rr));
}

void AuthoritativeServer::delegate(const DnsName& child_apex,
                                   const DnsName& ns_name, net::Ipv4Addr ns_addr,
                                   uint32_t ttl_s) {
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
  soa_ = Rrset({ResourceRecord::soa(apex_, std::move(soa), ttl_s)});
}

const AuthoritativeServer::Delegation* AuthoritativeServer::find_delegation(
    const DnsName& name) const {
  for (const auto& d : delegations_) {
    if (name.is_within(d.apex)) return &d;
  }
  return nullptr;
}

const Rrset* AuthoritativeServer::find_static(const DnsName& name,
                                              RRType type) const {
  const auto it = records_.find({name, type});
  return it == records_.end() ? nullptr : &it->second;
}

bool AuthoritativeServer::name_exists(const DnsName& name) const {
  // Keys order by name first, so the name's rrsets (never empty) start at
  // the lower bound of the smallest type.
  const auto it = records_.lower_bound({name, RRType{0}});
  return it != records_.end() && it->first.first == name;
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
    if (const Delegation* d = find_delegation(*qname)) {
      // Referral: not authoritative for the child zone.
      response.header.aa = false;
      response.authorities.append(d->ns);
      response.additionals.append(d->glue);
      return;
    }

    response.header.aa = true;
    if (const Rrset* exact = find_static(*qname, question.type)) {
      response.answers.append(*exact);
      return;
    }

    // In-zone CNAME: append its first record and chase if the target
    // stays in-zone.
    const Rrset* cnames = find_static(*qname, RRType::kCNAME);
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
    if (!name_exists(*qname)) response.header.rcode = Rcode::kNxDomain;
    response.authorities.append(soa_);
    return;
  }
  response.header.rcode = Rcode::kServFail;  // CNAME chain too long
}

ServedResponse AuthoritativeServer::serve(const Message& query,
                                          net::Ipv4Addr source_ip,
                                          net::SimTime now, net::Rng& rng) {
  CURTAIN_DCHECK(!query.questions.empty()) << "query carries no question";
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
