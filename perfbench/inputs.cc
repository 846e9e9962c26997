// Seeded inputs: the frozen warm pool, the adhoc universe, the churn
// population, accept-heavy template picks and the policy blobs.
//
// Accept-heavy construction. A random §7.2 policy admits only a few percent
// of random queries, so a benchmark over it times a saturated wall where
// almost every decision is a refusal. Here the base policy is a Chinese
// wall (DealBase), every app has a home partition of it and opens with a
// query only its home partition admits, so its consistency bits are exactly
// {home} from its first decision on. Nine picks in ten are queries the home
// partition admits on their own: they keep accepting. One pick in twenty is
// a query no partition admits (refused whatever the state). One pick in
// twenty is *walled*: another partition admits it, the home partition does
// not. A walled query is refused only because of the app's history — a
// fresh principal would be answered — so the decision check sees an engine
// that forgets, resets or fails to narrow principal state. Rollout policies
// only add views to the base partitions, so home admission survives every
// rollout.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "artifact/policy_blob.h"
#include "bench.h"
#include "cq/canonical.h"
#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/compiled_matcher.h"
#include "label/pipeline.h"
#include "workload/query_generator.h"

namespace fdc::perfbench {
namespace {

constexpr int kPartitions = 4;
constexpr double kSharedViews = 0.5;   // per relation, held by every partition
constexpr int kRolloutAdds = 2;        // views each rollout adds per partition
constexpr int kShadowDrops = 2;        // views the shadow drops per partition
constexpr double kRefusedPick = 0.05;  // share of picks no partition admits
constexpr double kWalledPick = 0.05;   // share admitted elsewhere, not home
// The deployment — the warm pool the frozen tier is built from, the policy
// blobs, and the adhoc universe with its popularity order — is the same for
// every run; --seed draws the traffic (which apps, which templates, the
// request sequences, the adhoc fresh queries). Runs on different seeds then
// differ in what a deployed server sees, not in what it is or which queries
// its ecosystem favours: under Zipf(1) the top-ranked query alone is 9% of
// adhoc traffic, so a seeded ranking moved the accept share by 0.75-0.93
// from seed to seed.
constexpr uint64_t kDeploymentSeed = 0xfdc5eed;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return SplitMix64Next(&s);
}

[[noreturn]] void Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(3);
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(3);
}

policy::SecurityPolicy CompilePartitions(
    const label::ViewCatalog& catalog,
    const std::vector<std::vector<int>>& views) {
  std::vector<policy::Partition> parts;
  for (size_t p = 0; p < views.size(); ++p) {
    std::string name = "P";
    name += std::to_string(p);
    parts.push_back({std::move(name), views[p]});
  }
  auto compiled = policy::SecurityPolicy::Compile(catalog, std::move(parts));
  if (!compiled.ok()) Fail("compile policy", compiled.status());
  return std::move(compiled).value();
}

/// Generated queries: text frames and their labels.
struct Pool {
  TextPool texts;
  std::vector<label::DisclosureLabel> labels;
  std::vector<std::string> keys;  // canonical forms
};

/// Per query of a pool, the mask of base partitions that admit it on its
/// own, and per partition p the classes an app homed on p picks from.
struct Classes {
  std::vector<uint64_t> admitted;
  std::vector<std::vector<uint32_t>> admits{kPartitions};  // admitted by p
  std::vector<std::vector<uint32_t>> only{kPartitions};    // by p alone
  std::vector<std::vector<uint32_t>> walls{kPartitions};   // by others only
  std::vector<uint32_t> refused;                           // by none

  Classes(const policy::SecurityPolicy& base,
          const std::vector<label::DisclosureLabel>& labels) {
    for (const label::DisclosureLabel& l : labels) {
      Add(base.AllowedPartitions(l, base.AllPartitionsMask()));
    }
  }
  explicit Classes(const std::vector<uint64_t>& masks) {
    for (uint64_t mask : masks) Add(mask);
  }

  void Add(uint64_t mask) {
    const uint32_t i = static_cast<uint32_t>(admitted.size());
    admitted.push_back(mask);
    if (mask == 0) refused.push_back(i);
    for (int p = 0; p < kPartitions; ++p) {
      const uint64_t bit = 1ULL << p;
      if ((mask & bit) == 0) {
        if (mask != 0) walls[p].push_back(i);
        continue;
      }
      admits[p].push_back(i);
      if (mask == bit) only[p].push_back(i);
    }
  }
};

/// The base policy, a Chinese wall: in each relation half the views are
/// held by every partition and the rest are dealt round-robin, each to one
/// partition alone. A query that needs a dealt view is admitted only by
/// that view's partition: an opener for apps homed there, walled for the
/// others. Deals are drawn until every partition admits at least an app's
/// template count of the warm pool, at least one of them alone, and is
/// walled off from an eighth of that count, so every home has each of
/// Picker's classes. (Only about 3.5k of the 16k warm-pool structures are
/// covered by any view at all; with a quarter of the views shared, about 19
/// deals in 20 left some partition short of 1,024.)
std::vector<std::vector<int>> DealBase(
    const label::ViewCatalog& catalog,
    const std::vector<label::DisclosureLabel>& warm, size_t templates,
    Rng* rng) {
  for (int draw = 0; draw < 1000; ++draw) {
    std::vector<std::vector<int>> parts(kPartitions);
    for (int r = 0; r < catalog.schema().NumRelations(); ++r) {
      std::vector<int> views = catalog.ViewsOfRelation(r);
      for (size_t i = views.size(); i > 1; --i) {
        std::swap(views[i - 1], views[rng->Below(i)]);
      }
      const size_t shared =
          static_cast<size_t>(std::lround(views.size() * kSharedViews));
      size_t next = rng->Below(kPartitions);
      for (size_t i = 0; i < views.size(); ++i) {
        if (i < shared) {
          for (auto& part : parts) part.push_back(views[i]);
        } else {
          parts[next++ % kPartitions].push_back(views[i]);
        }
      }
    }
    for (auto& part : parts) std::sort(part.begin(), part.end());
    const Classes c(CompilePartitions(catalog, parts), warm);
    bool ok = true;
    for (int p = 0; p < kPartitions; ++p) {
      ok = ok && c.admits[p].size() >= templates && !c.only[p].empty() &&
           c.walls[p].size() >= templates / 8;
    }
    if (ok) return parts;
  }
  Fail("no base policy deal gives every partition its pick classes");
}

/// Base, rollout variants (supersets of the base) and the shadow (the base
/// minus a few views per partition, so the shadow audit sees divergence).
void MakePolicies(const Env& env, const std::vector<label::DisclosureLabel>& warm,
                  Inputs* in) {
  Rng rng(Mix(kDeploymentSeed, 0x9011c1e5));
  const int n = env.catalog->size();
  const std::vector<std::vector<int>> base = DealBase(
      *env.catalog, warm, static_cast<size_t>(in->scale.templates_per_conn),
      &rng);
  auto add_or_drop = [&](int count, bool add) {
    std::vector<std::vector<int>> out = base;
    for (auto& part : out) {
      for (int k = 0; k < count; ++k) {
        const int v = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
        auto it = std::find(part.begin(), part.end(), v);
        if (add && it == part.end()) part.push_back(v);
        if (!add && it != part.end()) part.erase(it);
      }
      std::sort(part.begin(), part.end());
    }
    return out;
  };
  in->policies.push_back(CompilePartitions(*env.catalog, base));
  for (int r = 0; r < in->scale.rollout_blobs; ++r) {
    in->policies.push_back(
        CompilePartitions(*env.catalog, add_or_drop(kRolloutAdds, true)));
  }
  in->policies.push_back(
      CompilePartitions(*env.catalog, add_or_drop(kShadowDrops, false)));
  for (size_t i = 0; i < in->policies.size(); ++i) {
    artifact::PolicyBlobMeta meta;
    meta.name = i == 0 ? "base" : "variant-" + std::to_string(i);
    auto blob = artifact::CompilePolicyBlob(*env.catalog, in->policies[i], meta);
    if (!blob.ok()) Fail("compile blob", blob.status());
    in->blobs.push_back(std::move(blob).value());
  }
}

/// Candidate queries of one generator stream: a chunk at a time, drawn,
/// labeled by the batched compiled-matcher kernel, classed, and given a
/// canonical form when their class is wanted.
class Lane {
 public:
  Lane(const Env& env, uint64_t seed)
      : generator_(&env.schema, Options(), seed) {}

  /// `classify(label)` names a candidate's class, or -1 to skip it.
  template <typename Classify>
  void Fill(const label::CompiledCatalogMatcher& matcher, size_t n,
            const Classify& classify) {
    chunk.clear();  // the previous chunk's objects die here, on the lane
    ptrs_.clear();
    for (size_t k = 0; k < n; ++k) chunk.push_back(generator_.Next());
    for (const auto& q : chunk) ptrs_.push_back(&q);
    label::LabelQueriesBatched(matcher, label::DissectOptions{}, ptrs_,
                               &scratch_, &labels, &counters_);
    classes.resize(n);
    keys.resize(n);
    for (size_t k = 0; k < n; ++k) {
      classes[k] = classify(labels[k]);
      keys[k] = classes[k] < 0 ? std::string() : cq::CanonicalKey(chunk[k]);
    }
  }

  std::vector<cq::ConjunctiveQuery> chunk;
  std::vector<label::DisclosureLabel> labels;
  std::vector<int> classes;
  std::vector<std::string> keys;

 private:
  static workload::GeneratorOptions Options() {
    workload::GeneratorOptions options;
    options.subqueries = 2;
    return options;
  }
  workload::QueryGenerator generator_;
  label::BatchLabelScratch scratch_;
  label::BatchLabelCounters counters_;
  std::vector<const cq::ConjunctiveQuery*> ptrs_;
};

/// Generates queries with the paper's generator (uniform audience, 2
/// subqueries). `quota(label)` names the class a candidate would fill (or
/// -1 to skip it); one is kept while its class holds fewer than `quotas`
/// says, until every class is full or 64 times their sum was drawn. A
/// candidate whose canonical form is already in `structures` is skipped
/// and every kept candidate's form is added: the result is structurally
/// distinct from whatever the set held (the frozen warm pool) and within
/// itself. Candidates come from kLanes generator streams, each drawing,
/// labeling and canonicalizing its chunks on a thread of its own; chunks
/// are then taken in a fixed lane order, so the result depends on the seed
/// alone.
template <typename Quota>
Pool Generate(const Env& env, uint64_t seed,
              std::unordered_set<std::string>* structures,
              std::vector<size_t> quotas, Quota quota) {
  constexpr int kLanes = 3;
  constexpr size_t kChunk = 1024;
  const label::CompiledCatalogMatcher matcher =
      label::CompiledCatalogMatcher::Compile(*env.catalog);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int l = 0; l < kLanes; ++l) {
    lanes.push_back(std::make_unique<Lane>(env, Mix(seed, 0x1a9e + l)));
  }
  Pool pool;
  size_t open = 0, target = 0;
  for (size_t q : quotas) {
    target += q;
    open += q > 0;
  }
  for (size_t drawn = 0; open > 0 && drawn < 64 * target;
       drawn += kLanes * kChunk) {
    // Lanes canonicalize only candidates of classes still open.
    const std::vector<size_t> wanted = quotas;
    auto classify = [&](const label::DisclosureLabel& l) {
      const int c = quota(l);
      return c >= 0 && wanted[c] > 0 ? c : -1;
    };
    std::vector<std::thread> threads;
    for (int l = 1; l < kLanes; ++l) {
      threads.emplace_back(
          [&, l] { lanes[l]->Fill(matcher, kChunk, classify); });
    }
    lanes[0]->Fill(matcher, kChunk, classify);
    for (std::thread& t : threads) t.join();
    for (const auto& lane : lanes) {
      for (size_t k = 0; k < lane->chunk.size() && open > 0; ++k) {
        const int c = lane->classes[k];
        if (c < 0 || quotas[c] == 0 ||
            !structures->insert(lane->keys[k]).second) {
          continue;
        }
        open -= --quotas[c] == 0;
        pool.texts.Add(cq::ToDatalog(lane->chunk[k], env.schema));
        pool.labels.push_back(std::move(lane->labels[k]));
        pool.keys.push_back(std::move(lane->keys[k]));
      }
    }
  }
  return pool;
}

/// The adhoc universe: texts, canonical forms and the mask of base
/// partitions admitting each. It is part of the deployment, the same in
/// every run of a binary, so with a cache directory the first run saves it
/// there and later runs load it instead of drawing its ~1M candidates again
/// (5-10 s on a 4-vCPU VM).
struct Universe {
  TextPool texts;
  std::vector<std::string> keys;
  std::vector<uint64_t> masks;
};

/// The universe's cache file: named by the scale and by this binary's size
/// and modification time, so a rebuilt binary never reads an older one's.
std::string UniversePath(const std::string& dir, const Scale& scale) {
  struct stat st {};
  if (dir.empty() || stat("/proc/self/exe", &st) != 0) return "";
  return dir + "/adhoc-universe-" + std::to_string(scale.universe) + "-" +
         std::to_string(scale.warm_pool) + "-" + std::to_string(st.st_size) +
         "-" + std::to_string(st.st_mtim.tv_sec) + "." +
         std::to_string(st.st_mtim.tv_nsec) + ".bin";
}

bool ReadRecord(std::ifstream& f, uint64_t* mask, std::string* key,
                std::string* text) {
  uint32_t lengths[2] = {0, 0};
  if (!f.read(reinterpret_cast<char*>(mask), sizeof(*mask)) ||
      !f.read(reinterpret_cast<char*>(lengths), sizeof(lengths)) ||
      lengths[0] > (1u << 16) || lengths[1] > (1u << 16)) {
    return false;
  }
  key->resize(lengths[0]);
  text->resize(lengths[1]);
  return static_cast<bool>(f.read(key->data(), lengths[0])) &&
         static_cast<bool>(f.read(text->data(), lengths[1]));
}

bool LoadUniverse(const std::string& path, size_t n, Universe* u) {
  std::ifstream f(path, std::ios::binary);
  uint64_t count = 0;
  if (!f || !f.read(reinterpret_cast<char*>(&count), sizeof(count)) ||
      count != n) {
    return false;
  }
  uint64_t mask = 0;
  std::string key, text;
  for (uint64_t i = 0; i < count; ++i) {
    if (!ReadRecord(f, &mask, &key, &text)) return false;
    u->masks.push_back(mask);
    u->keys.push_back(key);
    u->texts.Add(text);
  }
  return f.peek() == std::ifstream::traits_type::eof();
}

/// Writes a temporary file and renames it into place, so a reader never
/// sees a partial one.
void SaveUniverse(const std::string& dir, const std::string& path,
                  const Universe& u) {
  mkdir(dir.c_str(), 0755);
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  std::ofstream f(tmp, std::ios::binary);
  const uint64_t count = u.masks.size();
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (size_t i = 0; i < count; ++i) {
    const std::string_view text = u.texts.Get(i);
    const uint32_t lengths[2] = {static_cast<uint32_t>(u.keys[i].size()),
                                 static_cast<uint32_t>(text.size())};
    f.write(reinterpret_cast<const char*>(&u.masks[i]), sizeof(u.masks[i]));
    f.write(reinterpret_cast<const char*>(lengths), sizeof(lengths));
    f.write(u.keys[i].data(), lengths[0]);
    f.write(text.data(), lengths[1]);
  }
  f.close();
  if (!f || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

/// Loads the universe from the cache, or draws it: Picker's mix for `home`
/// (admitted, walled, refused by all), structurally outside `structures`.
/// Either way its canonical forms join `structures`.
Universe MakeUniverse(const Env& env, const policy::SecurityPolicy& base,
                      int home, const Scale& scale,
                      const std::string& cache_dir,
                      std::unordered_set<std::string>* structures) {
  const std::string path = UniversePath(cache_dir, scale);
  Universe u;
  if (!path.empty() &&
      LoadUniverse(path, static_cast<size_t>(scale.universe), &u)) {
    structures->insert(u.keys.begin(), u.keys.end());
    return u;
  }
  u = Universe{};
  const size_t n_side = static_cast<size_t>(scale.universe * kRefusedPick);
  const size_t n_walled = static_cast<size_t>(scale.universe * kWalledPick);
  const size_t n_admitted =
      static_cast<size_t>(scale.universe) - n_side - n_walled;
  Pool gen = Generate(
      env, Mix(kDeploymentSeed, 0xad40c), structures,
      {n_admitted, n_walled, n_side},
      [&](const label::DisclosureLabel& l) {
        const uint64_t mask =
            base.AllowedPartitions(l, base.AllPartitionsMask());
        return mask == 0 ? 2 : ((mask >> home) & 1) != 0 ? 0 : 1;
      });
  for (const label::DisclosureLabel& l : gen.labels) {
    u.masks.push_back(base.AllowedPartitions(l, base.AllPartitionsMask()));
  }
  u.texts = std::move(gen.texts);
  u.keys = std::move(gen.keys);
  if (!path.empty()) SaveUniverse(cache_dir, path, u);
  return u;
}

/// Draws an app's picks: its opener, then nine in ten admitted by its home
/// partition, one in twenty walled and one in twenty refused by all.
/// `used` (optional) makes picks distinct across apps. Counts the picks
/// the home partition admits, for the report.
class Picker {
 public:
  Picker(const Classes* c, uint64_t seed) : c_(c), rng_(seed) {}

  uint32_t Opener(int home, std::vector<bool>* used) {
    if (c_->only[home].empty()) Fail("no opener for a home partition");
    return Draw(c_->only[home], home, used);
  }

  uint32_t Pick(int home, std::vector<bool>* used) {
    const double u = rng_.NextUnit();
    const auto& list = u < kRefusedPick                 ? c_->refused
                       : u < kRefusedPick + kWalledPick ? c_->walls[home]
                                                        : c_->admits[home];
    return Draw(list.empty() ? c_->admits[home] : list, home, used);
  }

  uint64_t picks = 0, admitted = 0;

 private:
  uint32_t Draw(const std::vector<uint32_t>& list, int home,
                std::vector<bool>* used) {
    uint32_t pick = 0;
    bool found = false;
    for (int attempt = 0; attempt < 64 && !list.empty() && !found; ++attempt) {
      pick = list[rng_.Below(list.size())];
      found = used == nullptr || !(*used)[pick];
    }
    // List exhausted: any unused candidate keeps the run going (and shows
    // up as a lower admitted_pick_share).
    for (uint32_t i = 0; !found && i < c_->admitted.size(); ++i) {
      pick = i;
      found = used == nullptr || !(*used)[i];
    }
    if (used != nullptr) (*used)[pick] = true;
    ++picks;
    admitted += (c_->admitted[pick] >> home) & 1;
    return pick;
  }

  const Classes* c_;
  Rng rng_;
};

int HomeOf(uint64_t seed, size_t app) {
  return static_cast<int>(Mix(seed ^ 0x40e, app) % kPartitions);
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWarmTemplates: return "warm_templates";
    case Workload::kAdhocText: return "adhoc_text";
    case Workload::kChurnRollout: return "churn_rollout";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kWarmTemplates, Workload::kAdhocText,
                     Workload::kChurnRollout}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Scale Scale::Small() {
  Scale s;
  s.warm_pool = 1024;
  s.conns = 2;
  s.templates_per_conn = 64;
  s.window = 8;
  s.universe = 2000;
  s.capacity = 16;
  s.swap_every = 512;
  s.rollout_blobs = 2;
  s.setup_reps = 2;
  s.settle_seconds = 0.1;
  s.quiet_rollouts = 8;
  s.replay_cap = 4000;
  s.explain_cap = 2000;
  return s;
}

void TextPool::Add(std::string_view text) {
  bytes_.append(text);
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
  const size_t r =
      static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

Env::Env() {
  schema = fb::BuildFacebookSchema();
  catalog = std::make_unique<label::ViewCatalog>(&schema);
  auto added = fb::RegisterFacebookViews(catalog.get());
  if (!added.ok()) Fail("register views", added.status());
}

std::string AppName(uint64_t seed, size_t k) {
  return "app-" + std::to_string(seed % 100000) + "-" + std::to_string(k);
}

std::unique_ptr<Inputs> MakeInputs(Workload workload, uint64_t seed,
                                   const Scale& scale, double seconds,
                                   const std::string& cache_dir) {
  auto in = std::make_unique<Inputs>();
  in->workload = workload;
  in->seed = seed;
  in->scale = scale;
  if (workload == Workload::kAdhocText) in->scale.window = scale.window / 4;
  Env env;

  // The frozen tier's structures, distinct within the pool; the adhoc
  // universe and the churn cold pool are kept outside it, so they really
  // exercise the overlay.
  std::unordered_set<std::string> structures;
  auto any = [](const label::DisclosureLabel&) { return 0; };
  Pool warm_gen = Generate(env, Mix(kDeploymentSeed, 0x3a2b), &structures,
                           {static_cast<size_t>(scale.warm_pool)}, any);
  MakePolicies(env, warm_gen.labels, in.get());
  const policy::SecurityPolicy& base = in->policies[0];
  const Classes warm(base, warm_gen.labels);
  in->warm_pool = std::move(warm_gen.texts);
  warm_gen = Pool{};
  uint64_t picks = 0, admitted = 0;

  switch (workload) {
    case Workload::kWarmTemplates: {
      // One app per home partition. An app's templates are distinct; apps
      // may share some (4 x 921 accepted picks is more than the warm pool's
      // ~3.5k covered structures). Template 0 is the app's opener, its
      // first request.
      Picker picker(&warm, Mix(seed, 0x7e3));
      in->conn_templates.resize(scale.conns);
      for (int c = 0; c < scale.conns; ++c) {
        std::vector<bool> used(warm.admitted.size(), false);
        const int home = c % kPartitions;
        in->conn_templates[c].push_back(picker.Opener(home, &used));
        for (int t = 1; t < scale.templates_per_conn; ++t) {
          in->conn_templates[c].push_back(picker.Pick(home, &used));
        }
      }
      picks = picker.picks;
      admitted = picker.admitted;
      break;
    }
    case Workload::kAdhocText: {
      // An accept-heavy universe: every adhoc app is homed on the base
      // partition admitting most of the warm pool (shared traffic from
      // many apps of one trust class), and the universe holds Picker's mix
      // for that home: admitted, walled, refused by all.
      int home = 0;
      for (int p = 1; p < kPartitions; ++p) {
        if (warm.admits[p].size() > warm.admits[home].size()) home = p;
      }
      Universe u =
          MakeUniverse(env, base, home, scale, cache_dir, &structures);
      const Classes cand(u.masks);
      if (cand.only[home].size() < static_cast<size_t>(scale.conns)) {
        Fail("the adhoc universe holds too few openers");
      }
      in->universe = std::move(u.texts);
      u = Universe{};
      for (uint64_t mask : cand.admitted) admitted += (mask >> home) & 1;
      picks += cand.admitted.size();
      const size_t n = in->universe.size();
      in->rank_to_item.resize(n);
      std::iota(in->rank_to_item.begin(), in->rank_to_item.end(), 0u);
      Rng shuffle(Mix(kDeploymentSeed, 0x5f1e));
      for (size_t i = in->rank_to_item.size(); i > 1; --i) {
        std::swap(in->rank_to_item[i - 1], in->rank_to_item[shuffle.Below(i)]);
      }
      in->zipf = std::make_unique<Zipf>(n, 1.0);
      // The warm-up opens each connection with an opener of its own, then
      // sends every other universe structure once, dealt round-robin over
      // the connections: every timed Zipf draw is then an overlay hit.
      in->warmup_items.resize(scale.conns);
      std::vector<bool> opener(n, false);
      for (int c = 0; c < scale.conns; ++c) {
        const uint32_t item = cand.only[home][c];
        in->warmup_items[c].push_back(item);
        opener[item] = true;
      }
      size_t next = 0;
      for (uint32_t item = 0; item < n; ++item) {
        if (!opener[item]) {
          in->warmup_items[next++ % scale.conns].push_back(item);
        }
      }
      // Novelty comes from fresh queries: straight from the paper's
      // generator (most of them refused by every partition), structurally
      // new to the warm pool, the universe and each other, sent at a fixed
      // rate. A Zipf(1) tail over a fixed universe would instead be
      // discovered within seconds (about 5% of requests novel at first,
      // 0.1% fifteen seconds later), so the timed phase would change
      // character as it ran. A fixed share of requests would make the
      // overlay's growth, and so its publishes and peak RSS, follow the
      // host's speed. There are enough for the settle and the timed phase.
      const size_t per_conn = static_cast<size_t>(
          std::ceil((scale.settle_seconds + seconds) * kFreshPerSecond /
                    scale.conns)) + 1;
      const size_t fresh_n = per_conn * static_cast<size_t>(scale.conns);
      Pool fresh =
          Generate(env, Mix(seed, 0xf7e5), &structures, {fresh_n}, any);
      in->fresh_begin = in->universe.size();
      for (size_t i = 0; i < fresh.texts.size(); ++i) {
        in->universe.Add(fresh.texts.Get(i));
      }
      break;
    }
    case Workload::kChurnRollout: {
      Pool cold_gen =
          Generate(env, Mix(seed, 0xc01d), &structures,
                   {static_cast<size_t>(std::max(1024, scale.warm_pool / 4))},
                   any);
      const Classes cold(base, cold_gen.labels);
      in->cold_pool = std::move(cold_gen.texts);
      cold_gen = Pool{};
      Picker warm_picker(&warm, Mix(seed, 0x3a3));
      Picker cold_picker(&cold, Mix(seed, 0xc0c));
      const size_t population =
          static_cast<size_t>(scale.capacity) * scale.population_factor;
      in->app_templates.resize(population);
      for (size_t a = 0; a < population; ++a) {
        // Template 0 is the app's opener (from the warm pool); the first
        // half comes from the warm pool, the rest from the cold pool.
        const int home = HomeOf(seed, a);
        in->app_templates[a].push_back({0, warm_picker.Opener(home, nullptr)});
        for (int t = 1; t < scale.session_templates; ++t) {
          const bool from_warm = t < scale.session_templates / 2;
          Picker& picker = from_warm ? warm_picker : cold_picker;
          in->app_templates[a].push_back(
              {static_cast<uint8_t>(from_warm ? 0 : 1),
               picker.Pick(home, nullptr)});
        }
      }
      picks = warm_picker.picks + cold_picker.picks;
      admitted = warm_picker.admitted + cold_picker.admitted;
      // Slot j serves apps a with a % conns == j, in a seeded popularity
      // order.
      const size_t per_slot = population / scale.conns;
      in->slot_apps.resize(scale.conns);
      Rng shuffle(Mix(seed, 0x5107));
      for (int j = 0; j < scale.conns; ++j) {
        auto& apps = in->slot_apps[j];
        for (size_t k = 0; k < per_slot; ++k) {
          apps.push_back(static_cast<uint32_t>(k * scale.conns + j));
        }
        for (size_t i = apps.size(); i > 1; --i) {
          std::swap(apps[i - 1], apps[shuffle.Below(i)]);
        }
      }
      // Popularity is Zipf(0.7). The exponent is not taken from a dataset:
      // it was chosen for run-to-run stability. At s=1 the top app took a
      // sixth of its slot's sessions, and runs swung with that one app's
      // templates.
      in->zipf = std::make_unique<Zipf>(per_slot, 0.7);
      break;
    }
  }
  in->admitted_pick_share =
      picks == 0 ? 0 : static_cast<double>(admitted) / static_cast<double>(picks);
  return in;
}

engine::EngineOptions EngineOptionsFor(const Inputs& in) {
  engine::EngineOptions options;
  if (in.workload == Workload::kChurnRollout) {
    options.principals.shards = 16;
    options.principals.max_principals = static_cast<size_t>(in.scale.capacity);
    options.principals.idle_ttl_ticks = 2;
    options.principal_sweep_interval = in.scale.swap_every / 8;
  }
  return options;
}

std::unique_ptr<engine::DisclosureEngine> BuildEngine(const Env& env,
                                                      const Inputs& in) {
  std::vector<cq::ConjunctiveQuery> pool;
  pool.reserve(in.warm_pool.size());
  for (size_t i = 0; i < in.warm_pool.size(); ++i) {
    auto q = cq::ParseDatalog(in.warm_pool.Get(i), env.schema);
    if (!q.ok()) Fail("parse warm pool", q.status());
    pool.push_back(std::move(q).value());
  }
  auto blob = artifact::LoadPolicyBlob(in.blobs[0]);
  if (!blob.ok()) Fail("load base blob", blob.status());
  if (Status s = artifact::ValidateAgainstCatalog(*blob, *env.catalog);
      !s.ok()) {
    Fail("validate base blob", s);
  }
  auto policy = artifact::PolicyFromBlob(*blob);
  if (!policy.ok()) Fail("base blob policy", policy.status());
  return std::make_unique<engine::DisclosureEngine>(
      /*db=*/nullptr, env.catalog.get(), std::move(policy).value(),
      EngineOptionsFor(in), std::span(pool.data(), pool.size()));
}

RequestStream::RequestStream(const Inputs& in, size_t conn,
                             const std::vector<uint64_t>* fresh_at)
    : in_(&in), conn_(conn), fresh_at_(fresh_at),
      rng_(Mix(in.seed, 0x5e9 + conn)) {}

uint32_t RequestStream::Next() {
  const size_t pos = pos_++;
  if (in_->workload == Workload::kWarmTemplates) {
    // The app's first request is its opener, template 0.
    return pos == 0 ? 0
                    : static_cast<uint32_t>(rng_.Below(
                          static_cast<uint64_t>(in_->scale.templates_per_conn)));
  }
  const auto& warm = in_->warmup_items[conn_];
  if (pos < warm.size()) return warm[pos];
  // Every index draws, so the draws do not depend on where fresh queries
  // went.
  const uint32_t drawn = in_->rank_to_item[in_->zipf->Sample(&rng_)];
  if (fresh_at_ != nullptr && fresh_ < fresh_at_->size() &&
      (*fresh_at_)[fresh_] == pos) {
    return static_cast<uint32_t>(in_->fresh_begin + conn_ +
                                 in_->warmup_items.size() * fresh_++);
  }
  return drawn;
}

uint32_t SessionApp(const Inputs& in, uint32_t slot, uint64_t seq) {
  Rng rng(Mix(Mix(in.seed, 0x5e55 + slot), seq));
  return in.slot_apps[slot][in.zipf->Sample(&rng)];
}

void SessionSubmits(const Inputs& in, const SessionRecord& session,
                    std::vector<uint32_t>* template_ids) {
  Rng rng(Mix(Mix(in.seed, 0x5b + session.slot), session.seq));
  template_ids->resize(static_cast<size_t>(in.scale.session_submits));
  for (uint32_t& id : *template_ids) {
    id = static_cast<uint32_t>(
        rng.Below(static_cast<uint64_t>(in.scale.session_templates)));
  }
  if (session.opens) (*template_ids)[0] = 0;
}

}  // namespace fdc::perfbench
