// disclosure_shell — an interactive reference-monitor console.
//
// Loads a disclosure configuration (schema + security views + policies; see
// src/config/config.h for the format, a built-in demo config is used when no
// file is given), then reads commands from stdin:
//
//   sql <SELECT ...>        label & submit a SQL query as the current app
//   dl <Q(x) :- ...>        label & submit a Datalog query
//   app <name>              switch principal (fresh state per name)
//   policy <name>           switch the active policy (resets all principals)
//   explain                 re-explain the last decision in full
//   status                  cumulative disclosure of the current app
//   quit
//
// Example session:
//   $ printf 'sql SELECT time FROM Meetings\nsql SELECT email FROM Contacts\n' \
//       | ./examples/disclosure_shell
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "config/config.h"
#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "cq/sql_parser.h"
#include "label/pipeline.h"
#include "policy/cumulative.h"
#include "policy/explain.h"
#include "policy/reference_monitor.h"

using namespace fdc;

namespace {

constexpr const char* kDemoConfig = R"(
relation Meetings(time, person)
relation Contacts(person, email, position)

view meetings_full: V(x, y) :- Meetings(x, y)
view meeting_times: V(x) :- Meetings(x, y)
view contacts_full: V(x, y, z) :- Contacts(x, y, z)

policy chinese_wall {
  partition meetings_side: meetings_full, meeting_times
  partition contacts_side: contacts_full
}

policy times_only {
  partition times: meeting_times
}
)";

struct AppSession {
  policy::PrincipalState state;
  policy::CumulativeTracker tracker;
};

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDemoConfig;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  auto config = config::ParseConfig(text);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  config::DisclosureConfig& c = **config;
  label::LabelingPipeline pipeline(c.catalog.get());

  const policy::SecurityPolicy* active = c.policies.front().second.num_partitions()
                                             ? &c.policies.front().second
                                             : nullptr;
  std::string active_name = c.policies.front().first;
  std::string current_app = "default";
  std::map<std::string, AppSession> sessions;
  auto session = [&]() -> AppSession& {
    auto [it, inserted] = sessions.try_emplace(current_app);
    if (inserted) {
      it->second.state = policy::ReferenceMonitor(active).InitialState();
    }
    return it->second;
  };

  std::printf("disclosure_shell — policy '%s', app '%s'. Type 'quit' to exit.\n",
              active_name.c_str(), current_app.c_str());
  policy::Explanation last_explanation;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd.empty()) continue;
    std::string rest;
    std::getline(iss, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "app") {
      current_app = rest.empty() ? "default" : rest;
      std::printf("now acting as app '%s'\n", current_app.c_str());
      continue;
    }
    if (cmd == "policy") {
      const policy::SecurityPolicy* next = c.FindPolicy(rest);
      if (next == nullptr) {
        std::printf("unknown policy '%s' (available:", rest.c_str());
        for (const auto& [name, unused] : c.policies) {
          std::printf(" %s", name.c_str());
        }
        std::printf(")\n");
        continue;
      }
      active = next;
      active_name = rest;
      sessions.clear();
      std::printf("policy '%s' active; all app states reset\n", rest.c_str());
      continue;
    }
    if (cmd == "explain") {
      std::printf("%s", last_explanation.ToString().c_str());
      continue;
    }
    if (cmd == "status") {
      AppSession& s = session();
      std::printf("app '%s': %d answered quer%s; knows:\n",
                  current_app.c_str(), s.tracker.answered_queries(),
                  s.tracker.answered_queries() == 1 ? "y" : "ies");
      auto atoms = s.tracker.DescribeAtoms(*c.catalog);
      for (const auto& names : atoms) {
        std::printf("  - information bounded by:");
        for (const auto& n : names) std::printf(" %s", n.c_str());
        std::printf("\n");
      }
      if (atoms.empty()) std::printf("  (nothing yet)\n");
      continue;
    }

    if (cmd == "sql" || cmd == "dl") {
      Result<cq::ConjunctiveQuery> parsed =
          cmd == "sql" ? cq::ParseSql(rest, *c.schema)
                       : cq::ParseDatalog(rest, *c.schema);
      if (!parsed.ok()) {
        std::printf("  %s\n", parsed.status().ToString().c_str());
        continue;
      }
      AppSession& s = session();
      label::DisclosureLabel label = pipeline.LabelPacked(*parsed);
      last_explanation =
          policy::ExplainDecision(*active, *c.catalog, label,
                                  s.state.consistent);
      policy::ReferenceMonitor monitor(active);
      const bool ok = monitor.Submit(&s.state, label);
      if (ok) s.tracker.RecordAnswered(label);
      std::printf("  %s  [%s]\n", ok ? "ANSWERED" : "REFUSED",
                  cq::ToTaggedBody(*parsed, *c.schema).c_str());
      if (!ok) std::printf("%s", last_explanation.ToString().c_str());
      continue;
    }

    std::printf("unknown command '%s' (sql / dl / app / policy / explain / "
                "status / quit)\n",
                cmd.c_str());
  }
  return 0;
}
