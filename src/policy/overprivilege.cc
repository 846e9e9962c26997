#include "policy/overprivilege.h"

#include <algorithm>
#include <set>

#include "label/pipeline.h"

namespace fdc::policy {

OverprivilegeReport AnalyzeOverprivilege(
    const label::ViewCatalog& catalog, const std::vector<int>& requested_views,
    const std::vector<cq::ConjunctiveQuery>& workload) {
  OverprivilegeReport report;
  const std::set<int> requested(requested_views.begin(),
                                requested_views.end());
  const label::LabelingPipeline pipeline(&catalog);

  // Per atom: requested views able to answer it.
  std::vector<std::vector<int>> atom_options;
  for (const cq::ConjunctiveQuery& query : workload) {
    for (const std::set<int>& plus : pipeline.LabelHashed(query).per_atom) {
      std::vector<int> usable;
      for (int v : plus) {
        if (requested.contains(v)) usable.push_back(v);
      }
      if (usable.empty()) {
        ++report.unanswerable_atoms;
      } else {
        atom_options.push_back(std::move(usable));
      }
    }
  }

  // Unused: requested views appearing in no atom's options.
  std::set<int> appearing;
  for (const std::vector<int>& options : atom_options) {
    appearing.insert(options.begin(), options.end());
  }
  for (int v : requested) {
    if (!appearing.contains(v)) report.unused_views.push_back(v);
  }

  // Greedy cover: repeatedly take the view covering the most uncovered
  // atoms, then prune views made redundant (removal-minimal result).
  std::vector<bool> covered(atom_options.size(), false);
  std::set<int> chosen;
  for (;;) {
    int best_view = -1;
    int best_gain = 0;
    for (int v : appearing) {
      if (chosen.contains(v)) continue;
      int gain = 0;
      for (size_t a = 0; a < atom_options.size(); ++a) {
        if (!covered[a] &&
            std::find(atom_options[a].begin(), atom_options[a].end(), v) !=
                atom_options[a].end()) {
          ++gain;
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_view = v;
      }
    }
    if (best_view < 0) break;
    chosen.insert(best_view);
    for (size_t a = 0; a < atom_options.size(); ++a) {
      if (!covered[a] &&
          std::find(atom_options[a].begin(), atom_options[a].end(),
                    best_view) != atom_options[a].end()) {
        covered[a] = true;
      }
    }
  }
  // Removal-minimality pass.
  for (auto it = chosen.begin(); it != chosen.end();) {
    const int candidate = *it;
    bool needed = false;
    for (const std::vector<int>& options : atom_options) {
      bool covered_without = false;
      for (int v : options) {
        if (v != candidate && chosen.contains(v)) {
          covered_without = true;
          break;
        }
      }
      if (!covered_without &&
          std::find(options.begin(), options.end(), candidate) !=
              options.end()) {
        needed = true;
        break;
      }
    }
    if (!needed) {
      it = chosen.erase(it);
    } else {
      ++it;
    }
  }
  report.minimal_sufficient.assign(chosen.begin(), chosen.end());
  return report;
}

}  // namespace fdc::policy
