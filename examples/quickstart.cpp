// Quickstart: the paper's running example (Figures 1 and 3) end to end.
//
// Builds Alice's Meetings/Contacts schema, defines the security views of
// Figure 1(b), labels the queries of Figure 1(c), materializes the Figure 3
// disclosure lattice, and shows a policy decision.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <string>

#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "label/pipeline.h"
#include "label/view_catalog.h"
#include "order/disclosure_lattice.h"
#include "order/rewriting_order.h"
#include "order/universe.h"
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

void PrintLabel(const std::string& name, const label::SetLabel& label,
                const label::ViewCatalog& catalog) {
  std::printf("  label(%s) = {", name.c_str());
  bool first = true;
  for (const auto& per_atom : label.per_atom) {
    for (int id : per_atom) {
      std::printf("%s%s", first ? "" : ", ", catalog.view(id).name.c_str());
      first = false;
    }
  }
  std::printf("}%s\n", label.top ? " (plus information no view bounds: ⊤)"
                                 : "");
}

}  // namespace

int main() {
  // ---- Figure 1(a): schema --------------------------------------------
  cq::Schema schema;
  (void)schema.AddRelation("Meetings", {"time", "person"});
  (void)schema.AddRelation("Contacts", {"person", "email", "position"});

  // ---- Figure 1(b): security views ------------------------------------
  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("V1", "V1(x, y) :- Meetings(x, y)");
  (void)catalog.AddViewText("V2", "V2(x) :- Meetings(x, y)");
  (void)catalog.AddViewText("V3", "V3(x, y, z) :- Contacts(x, y, z)");

  // ---- Figure 1(c): labeling the example queries ----------------------
  label::LabelingPipeline pipeline(&catalog);
  std::printf("Labeling the queries of Figure 1(c):\n");
  auto q1 = Parse("Q1(x) :- Meetings(x, 'Cathy')", schema);
  PrintLabel("Q1", pipeline.LabelHashed(q1), catalog);
  auto q2 = Parse("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')", schema);
  PrintLabel("Q2", pipeline.LabelHashed(q2), catalog);
  std::printf("  (Q1 needs V1 — V2's time column cannot filter by person;\n"
              "   Q2 additionally reveals Contacts data, so V3 joins in.)\n\n");

  // ---- Figure 3: the disclosure lattice --------------------------------
  order::Universe universe;
  auto add_view = [&](const char* text) {
    auto q = Parse(text, schema);
    return universe.Add(*cq::AtomPattern::FromQuery(q));
  };
  const int v1 = add_view("V1(x, y) :- Meetings(x, y)");
  const int v2 = add_view("V2(x) :- Meetings(x, y)");
  const int v4 = add_view("V4(y) :- Meetings(x, y)");
  const int v5 = add_view("V5() :- Meetings(x, y)");
  const char* names[] = {"V1", "V2", "V4", "V5"};

  order::RewritingOrder order(&universe);
  auto lattice = order::DisclosureLattice::Build(order, universe.size());
  if (!lattice.ok()) {
    std::fprintf(stderr, "%s\n", lattice.status().ToString().c_str());
    return 1;
  }
  std::printf("The Figure 3 disclosure lattice (%d elements):\n",
              lattice->NumElements());
  for (int e = 0; e < lattice->NumElements(); ++e) {
    std::string desc = "  ";
    desc += (e == lattice->Bottom()) ? "⊥ = " : (e == lattice->Top() ? "⊤ = "
                                                                     : "    ");
    desc += "⇓{";
    bool first = true;
    for (int v : order::BitsToViewSet(lattice->ElementBits(e))) {
      desc += std::string(first ? "" : ",") + names[v];
      first = false;
    }
    desc += "}  covers:";
    for (int c : lattice->LowerCovers(e)) {
      desc += " " + std::to_string(c);
    }
    std::printf("%s  (element %d)\n", desc.c_str(), e);
  }
  const int glb = lattice->Glb(lattice->IndexOfDownSet({v2}),
                               lattice->IndexOfDownSet({v4}));
  const int lub = lattice->Lub(lattice->IndexOfDownSet({v2}),
                               lattice->IndexOfDownSet({v4}));
  std::printf(
      "  GLB(⇓{V2}, ⇓{V4}) = element %d (= ⇓{V5}: both projections reveal\n"
      "  whether Meetings is nonempty); LUB = element %d, properly below\n"
      "  ⊤ = element %d — the projections cannot reconstitute the table.\n\n",
      glb, lub, lattice->Top());
  (void)v1;
  (void)v5;

  // ---- A policy decision (§3.4) -----------------------------------------
  // Alice permits queries answerable from V2 alone.
  auto policy = policy::SecurityPolicy::Compile(
      catalog, {{"times_only", {catalog.FindByName("V2")->id}}});
  policy::ReferenceMonitor monitor(&*policy);
  policy::PrincipalState app = monitor.InitialState();
  auto times = Parse("Q(x) :- Meetings(x, y)", schema);
  std::printf("Policy 'times_only' = {V2}:\n");
  std::printf("  Q(x) :- Meetings(x, y)        -> %s\n",
              monitor.Submit(&app, pipeline.LabelPacked(times)) ? "answered"
                                                                : "refused");
  std::printf("  Q1(x) :- Meetings(x, 'Cathy') -> %s\n",
              monitor.Submit(&app, pipeline.LabelPacked(q1)) ? "answered"
                                                             : "refused");
  std::printf("  Q2 (join with Contacts)       -> %s\n",
              monitor.Submit(&app, pipeline.LabelPacked(q2)) ? "answered"
                                                             : "refused");
  std::printf("(Both Q1 and Q2 are rejected under the V2 policy, as in §1.1.)\n");
  return 0;
}
