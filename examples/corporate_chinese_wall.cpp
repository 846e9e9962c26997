// Chinese Wall policies for a corporate BYOD deployment (§1, §3.4, §6.2).
//
// A consulting firm's device database holds engagement data for two client
// banks plus the consultant's own calendar. Conflict-of-interest rules
// (Brewer–Nash) say an app may see either bank's data, never both. The
// policy is three partitions; the monitor's consistency bit vector narrows
// as apps commit to a side — Example 6.2/6.3 at enterprise scale.
//
//   $ ./examples/corporate_chinese_wall
#include <cstdio>
#include <string>
#include <vector>

#include "cq/datalog_parser.h"
#include "label/pipeline.h"
#include "label/view_catalog.h"
#include "policy/policy_analysis.h"
#include "policy/reference_monitor.h"

using namespace fdc;

namespace {

cq::ConjunctiveQuery Parse(const std::string& text, const cq::Schema& schema) {
  auto q = cq::ParseDatalog(text, schema);
  if (!q.ok()) {
    std::fprintf(stderr, "parse error: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  return *q;
}

std::string Bits(uint32_t mask, int n) {
  std::string out = "<";
  for (int i = 0; i < n; ++i) {
    out += ((mask >> i) & 1) ? '1' : '0';
    if (i + 1 < n) out += ',';
  }
  return out + ">";
}

}  // namespace

int main() {
  cq::Schema schema;
  (void)schema.AddRelation("BankA", {"deal_id", "client", "amount"});
  (void)schema.AddRelation("BankB", {"deal_id", "client", "amount"});
  (void)schema.AddRelation("Calendar", {"time", "subject"});

  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("bank_a_deals", "V(d, c, a) :- BankA(d, c, a)");
  (void)catalog.AddViewText("bank_b_deals", "V(d, c, a) :- BankB(d, c, a)");
  (void)catalog.AddViewText("calendar", "V(t, s) :- Calendar(t, s)");
  (void)catalog.AddViewText("calendar_times", "V(t) :- Calendar(t, s)");

  // Conflict-of-interest classes: each partition allows one bank plus the
  // consultant's calendar. A third partition allows the calendar only
  // (strictly weaker — the analyzer flags it as redundant).
  const int bank_a = catalog.FindByName("bank_a_deals")->id;
  const int bank_b = catalog.FindByName("bank_b_deals")->id;
  const int cal = catalog.FindByName("calendar")->id;
  auto policy = policy::SecurityPolicy::Compile(
      catalog, {{"wall_bank_a", {bank_a, cal}},
                {"wall_bank_b", {bank_b, cal}},
                {"calendar_only", {cal}}});
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }

  std::vector<int> redundant = policy::FindRedundantPartitions(*policy);
  std::printf("Policy audit: %zu redundant partition(s)", redundant.size());
  for (int p : redundant) {
    std::printf(" ['%s' is dominated]",
                policy->partitions()[p].name.c_str());
  }
  std::printf("\n\n");

  label::LabelingPipeline pipeline(&catalog);
  policy::ReferenceMonitor monitor(&*policy);
  const int k = policy->num_partitions();

  struct Step {
    const char* app;
    const char* text;
  };
  const std::vector<Step> session = {
      {"analytics", "Q(t) :- Calendar(t, s)"},
      {"analytics", "Q(d, a) :- BankA(d, c, a)"},
      {"analytics", "Q(d) :- BankB(d, c, a)"},          // wall: refused
      {"analytics", "Q(c) :- BankA(d, c, a)"},          // same side: fine
      {"audit_tool", "Q(d) :- BankB(d, c, a)"},         // other principal
      {"audit_tool", "Q(a) :- BankA(d, c, a)"},         // wall: refused
  };

  policy::PrincipalState analytics = monitor.InitialState();
  policy::PrincipalState audit_tool = monitor.InitialState();
  std::printf("Submitting queries (consistency bits shown per decision):\n");
  for (const Step& step : session) {
    policy::PrincipalState* state =
        std::string(step.app) == "analytics" ? &analytics : &audit_tool;
    const bool ok =
        monitor.Submit(state, pipeline.LabelPacked(Parse(step.text, schema)));
    std::printf("  [%-10s] %-34s -> %-8s state=%s\n", step.app, step.text,
                ok ? "answered" : "REFUSED",
                Bits(state->consistent, k).c_str());
  }

  std::printf(
      "\nThe wall held: once an app touched Bank A data, every Bank B query\n"
      "was refused (and vice versa), while calendar access stayed open.\n");
  return 0;
}
