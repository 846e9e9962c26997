#include "fb/fb_audit.h"

#include <algorithm>
#include <cassert>

#include "fb/fb_schema.h"
#include "label/pipeline.h"

namespace fdc::fb {

cq::ConjunctiveQuery MakeAttributeQuery(const cq::Schema& schema,
                                        const std::string& attribute,
                                        const std::string& audience) {
  const cq::RelationDef* user = schema.Find(kUser);
  assert(user != nullptr);
  const int attr_idx = user->AttributeIndex(attribute);
  assert(attr_idx >= 0);
  const int uid_idx = user->AttributeIndex("uid");
  const int rel_idx = user->AttributeIndex("viewer_rel");

  std::vector<cq::Term> terms;
  std::vector<cq::Term> head;
  for (int i = 0; i < user->arity(); ++i) {
    if (i == uid_idx && audience == kSelf) {
      // The app asks about the current user: uid is fixed.
      terms.push_back(cq::Term::Const("me"));
      continue;
    }
    if (i == rel_idx) {
      terms.push_back(cq::Term::Const(audience));
      continue;
    }
    terms.push_back(cq::Term::Var(i));
    if (i == attr_idx) head.push_back(cq::Term::Var(i));
    if (i == uid_idx) head.push_back(cq::Term::Var(i));  // whose attribute
  }
  return cq::ConjunctiveQuery("Q", std::move(head),
                              {cq::Atom(user->id, std::move(terms))});
}

AuditResult RunFacebookAudit(const label::ViewCatalog& catalog) {
  AuditResult result;
  label::LabelingPipeline pipeline(&catalog);

  for (const DocumentedView& doc : DocumentedUserViews()) {
    ++result.total_views;
    if (doc.fql == doc.graph) {
      ++result.consistent;
    } else {
      AuditRow row{doc.attribute, doc.audience, doc.fql, doc.graph, doc.actual,
                   "neither"};
      if (doc.actual == doc.fql) {
        row.correct_api = "FQL";
      } else if (doc.actual == doc.graph) {
        row.correct_api = "Graph API";
      }
      result.inconsistencies.push_back(std::move(row));
    }

    // Machine cross-check for permission-guarded attributes: the label of
    // the attribute query must name exactly the documented-actual
    // permissions.
    if (doc.actual.kind != ReqKind::kPerms) continue;
    const cq::ConjunctiveQuery query =
        MakeAttributeQuery(catalog.schema(), doc.attribute, doc.audience);
    const label::SetLabel label = pipeline.LabelHashed(query);
    std::vector<std::string> computed;
    for (const std::set<int>& per_atom : label.per_atom) {
      for (int view_id : per_atom) {
        computed.push_back(catalog.view(view_id).name);
      }
    }
    std::sort(computed.begin(), computed.end());
    computed.erase(std::unique(computed.begin(), computed.end()),
                   computed.end());
    std::vector<std::string> expected = doc.actual.permissions;
    std::sort(expected.begin(), expected.end());
    if (computed != expected) {
      result.labeler_mismatches.push_back(doc.attribute + "/" + doc.audience);
    }
  }
  return result;
}

std::string RenderTable2(const AuditResult& result) {
  std::string out;
  out += "Table 2: Inconsistencies between the FQL and Graph API permissions "
         "labeling of User attributes\n";
  out += "('any' = any nonempty permission set; 'none' = no permissions "
         "required)\n\n";
  auto pad = [](std::string s, size_t width) {
    if (s.size() < width) s.append(width - s.size(), ' ');
    return s;
  };
  out += pad("Attribute", 22) + pad("FQL Permissions", 24) +
         pad("Graph API Permissions", 26) + "Correct Labeling\n";
  out += std::string(88, '-') + "\n";
  for (const AuditRow& row : result.inconsistencies) {
    out += pad(row.attribute, 22) + pad(row.fql.ToString(), 24) +
           pad(row.graph.ToString(), 26) + row.correct_api + "\n";
  }
  out += std::string(88, '-') + "\n";
  out += std::to_string(result.inconsistencies.size()) + " of " +
         std::to_string(result.total_views) +
         " corresponding views are labeled inconsistently; labeler "
         "cross-check mismatches: " +
         std::to_string(result.labeler_mismatches.size()) + "\n";
  return out;
}

}  // namespace fdc::fb
