// Self-tests of the driver's own helpers. They run at the start of every
// benchmark run (each is one correctness check) and alone with --selftest.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "reliability/campaign.hpp"
#include "telemetry/checkpoint.hpp"
#include "tracer.hpp"
#include "workload/streams.hpp"

namespace perfbench {

namespace {

using pair_ecc::timing::Request;

bool SameRequests(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].arrival != b[i].arrival || a[i].op != b[i].op ||
        a[i].rank != b[i].rank || !(a[i].addr == b[i].addr))
      return false;
  return true;
}

std::vector<Request> Drain(pair_ecc::timing::RequestSource& source) {
  std::vector<Request> out;
  Request req;
  while (source.Next(req)) out.push_back(req);
  return out;
}

void TestTimedSourceReplays(Checks& checks) {
  pair_ecc::workload::StreamConfig cfg;
  cfg.kind = pair_ecc::workload::StreamKind::kBatchInference;
  cfg.num_requests = 700;
  cfg.read_fraction = 0.5;
  cfg.seed = 11;
  Tracer tracer;
  const std::vector<Request> plain = [&] {
    auto source = pair_ecc::workload::MakeStream(cfg);
    return Drain(*source);
  }();
  std::vector<Request> first, second;
  std::uint64_t pulled = 0;
  {
    Scope span(&tracer, "workload.test");
    TimedSource timed(pair_ecc::workload::MakeStream(cfg), &tracer,
                      "workload.next");
    timed.Reset();
    first = Drain(timed);
    timed.Reset();
    second = Drain(timed);
    pulled = timed.pulled();
  }
  const auto totals = tracer.Totals();
  checks.Expect(plain.size() == cfg.num_requests &&
                    SameRequests(first, plain) && SameRequests(second, plain),
                "selftest: TimedSource replays the identical sequence across "
                "Reset()");
  checks.Expect(pulled == 2 * cfg.num_requests &&
                    totals.at("workload.next").count == pulled,
                "selftest: TimedSource counts every pulled request");
}

void TestSelfTimeArithmetic(Checks& checks) {
  // root [0, 100) > a [10, 40) with 5 ns of leaf work, b [50, 90) > c
  // [60, 70); a second root [100, 150) > d [110, 120).
  Tracer t;
  const int root = t.Begin("sim.root", 0);
  const int a = t.Begin("ecc.a", 10);
  t.ChargeLeaf(5);
  t.End(a, 40);
  const int b = t.Begin("dram.b", 50);
  const int c = t.Begin("dram.c", 60);
  t.End(c, 70);
  t.End(b, 90);
  t.End(root, 100);
  t.AddLeafTotals("workload.next", 5, 1);
  const int other = t.Begin("trace.other", 100);
  const int d = t.Begin("ecc.d", 110);
  t.End(d, 120);
  t.End(other, 150);
  const auto totals = t.Totals();
  const auto near = [](double x, double ns) {
    return x > ns * 1e-9 - 1e-15 && x < ns * 1e-9 + 1e-15;
  };
  checks.Expect(near(totals.at("sim.root").self_s, 30) &&
                    near(totals.at("ecc.a").self_s, 25) &&
                    near(totals.at("dram.b").self_s, 30) &&
                    near(totals.at("dram.c").self_s, 10) &&
                    near(totals.at("workload.next").self_s, 5) &&
                    near(totals.at("dram.b").total_s, 40),
                "selftest: span self time is duration minus children and "
                "charged leaves");
  double layer_sum = 0.0;
  for (const auto& [layer, l] : t.Layers()) layer_sum += l.self_s;
  const auto first = t.Layers("sim.root");
  const auto second = t.Layers("trace.other");
  checks.Expect(near(t.WallSeconds(), 150) && near(layer_sum, 150) &&
                    near(t.WallSeconds("sim.root"), 100) &&
                    near(first.at("dram").self_s, 40) &&
                    first.at("dram").spans == 2 &&
                    near(first.at("ecc").self_s, 25) &&
                    near(first.at("workload").self_s, 5) &&
                    near(first.at("sim").self_s, 30) &&
                    near(second.at("ecc").self_s, 10) &&
                    near(second.at("trace").self_s, 40) && second.size() == 2,
                "selftest: layer self times add up to the traced wall time, "
                "per root and overall");
}

void TestMetricNames(Checks& checks) {
  const bool good = ValidMetricName("trials_per_s") &&
                    ValidMetricName("sim.host_us_per_request") &&
                    ValidMetricName("0-x_y.z") &&
                    ValidMetricName(std::string(64, 'a'));
  const bool bad = ValidMetricName("") || ValidMetricName(".x") ||
                   ValidMetricName("_x") || ValidMetricName("a b") ||
                   ValidMetricName("a/b") || ValidMetricName("a\"b") ||
                   ValidMetricName(std::string(65, 'a'));
  checks.Expect(good && !bad, "selftest: metric-name charset [A-Za-z0-9_.-]");
}

void TestResumeLandsOnShard(Checks& checks, const std::string& workdir) {
  namespace rel = pair_ecc::reliability;
  namespace sim = pair_ecc::sim;
  // 160 trials: 10 full shards; 170: a partial eleventh.
  for (const std::uint64_t trials : {std::uint64_t{160}, std::uint64_t{170}}) {
    const ResumePlan plan = PlanLastSliceResume(trials);
    sim::CampaignSpec spec;
    spec.mode = sim::CampaignMode::kReliability;
    spec.scenario.scheme = pair_ecc::ecc::SchemeKind::kIecc;
    spec.scenario.faults_per_trial = 2;
    spec.scenario.seed = 5;
    spec.scenario.threads = 1;
    spec.trials = trials;
    spec.slice = plan.slice;
    spec.checkpoint_path = workdir + "/selftest_resume.json";
    std::remove(spec.checkpoint_path.c_str());
    const sim::CampaignProgress fresh = sim::RunCampaign(spec, nullptr, 1);
    const sim::CampaignProgress resumed = sim::RunCampaign(spec);

    rel::ScenarioShardState direct;
    const rel::WorkingSet ws = rel::MakeScenarioWorkingSet(spec.scenario);
    rel::TrialEngine(1).RunShardsObserved<rel::ScenarioShardState,
                                          rel::ScenarioScratch>(
        spec.scenario.seed, trials, plan.first_shard, plan.total_shards,
        [&](std::uint64_t, pair_ecc::util::Xoshiro256& rng,
            rel::ScenarioShardState& acc, rel::ScenarioScratch& scratch) {
          rel::RunScenarioTrial(spec.scenario, ws, rng, acc, scratch);
        },
        [&](std::uint64_t, const rel::ScenarioShardState& s) { direct += s; });
    const rel::ScenarioShardState stored = rel::ScenarioStateFromJson(
        *pair_ecc::telemetry::ReadCheckpointFile(spec.checkpoint_path)
             .Find("state"));
    std::remove(spec.checkpoint_path.c_str());

    checks.Expect(
        fresh.first_shard == plan.first_shard && !fresh.complete &&
            fresh.next_shard == plan.resume_shard && resumed.resumed &&
            resumed.complete && resumed.next_shard == plan.total_shards &&
            stored == direct,
        "selftest: resume phase lands on shard " +
            std::to_string(plan.resume_shard) + " of " +
            std::to_string(plan.total_shards) + " (" +
            std::to_string(trials) + " trials)");
  }
}

}  // namespace

void RunSelfTests(Checks& checks, const std::string& workdir) {
  checks.Guard("selftest: TimedSource", [&] { TestTimedSourceReplays(checks); });
  checks.Guard("selftest: self time", [&] { TestSelfTimeArithmetic(checks); });
  checks.Guard("selftest: metric names", [&] { TestMetricNames(checks); });
  checks.Guard("selftest: resume",
               [&] { TestResumeLandsOnShard(checks, workdir); });
}

}  // namespace perfbench
