// F1 — failure probability vs inherent-fault rate.
//
// For each scheme, per-trial outcome rates are measured conditioned on an
// exact fault count N = 1..4 drawn from the field-style inherent mix, then
// folded over Poisson(lambda) fault counts for a sweep of lambda (expected
// inherent faults per rank working set). This is the headline reliability
// figure: P(SDC) and P(any failure incl. DUE) per scheme, as fault density
// scales.
#include "bench/bench_common.hpp"

#include "reliability/monte_carlo.hpp"
#include "reliability/variance_reduction.hpp"

using namespace pair_ecc;

int main() {
  bench::BenchReport report("F1",
                            "reliability vs inherent fault rate (mix: field)");

  const unsigned kTrials = report.Trials(500);
  constexpr unsigned kMaxFaults = 4;
  const double lambdas[] = {0.05, 0.1, 0.2, 0.5, 1.0, 2.0};

  util::Table t({"scheme", "lambda", "P(SDC)", "P(DUE)", "P(failure)"});
  util::Table cond({"scheme", "N faults", "trial SDC rate", "trial DUE rate",
                    "95% CI (SDC)"});

  for (const auto kind : bench::ComparedSchemes()) {
    std::vector<reliability::OutcomeCounts> conditional;
    for (unsigned n = 1; n <= kMaxFaults; ++n) {
      reliability::ScenarioConfig cfg;
      cfg.scheme = kind;
      cfg.mix = faults::FaultMix::Inherent();
      cfg.faults_per_trial = n;
      cfg.working_rows = 1;
      cfg.lines_per_row = 4;
      cfg.seed = bench::kBenchSeed + n;
      conditional.push_back(reliability::RunMonteCarlo(cfg, kTrials));
      const auto ci = conditional.back().TrialSdcInterval();
      std::string interval = "[";
      interval.append(util::Table::Sci(ci.lower))
          .append(", ")
          .append(util::Table::Sci(ci.upper))
          .append("]");
      cond.AddRow({ecc::ToString(kind), std::to_string(n),
                   util::Table::Sci(conditional.back().TrialSdcRate()),
                   util::Table::Sci(conditional.back().TrialDueRate()),
                   interval});
    }
    for (const double lambda : lambdas) {
      const auto est = reliability::CombinePoisson(conditional, lambda);
      t.AddRow({ecc::ToString(kind), util::Table::Fixed(lambda, 2),
                util::Table::Sci(est.p_sdc), util::Table::Sci(est.p_due),
                util::Table::Sci(est.p_failure)});
    }
  }

  std::cout << "-- conditional rates (N exact faults, " << kTrials
            << " trials each) --\n";
  report.Emit("conditional_rates", cond);
  std::cout << "-- Poisson-combined sweep --\n";
  report.Emit("poisson_sweep", t);

  // Rare tail via importance sampling: at a field-realistic lambda the
  // failure probability is ~1e-12 — invisible to the naive sweep above at
  // any affordable trial count. The forced-fault-count tilt spends every
  // trial in the 2..6-fault window that carries the tail mass and
  // reweights by the exact Poisson likelihood ratio.
  reliability::TiltSpec tilt;
  tilt.kind = reliability::TiltKind::kForced;
  tilt.lambda = 1.6e-5;
  tilt.proposal_lambda = 1.5;
  tilt.min_faults = 2;
  tilt.max_faults = 6;
  report.MetaReal("tail_lambda", tilt.lambda);
  report.MetaReal("tail_proposal", tilt.proposal_lambda);

  util::Table tail({"scheme", "P(failure)", "std err", "ESS",
                    "naive-equiv trials", "acceleration"});
  for (const auto kind : bench::ComparedSchemes()) {
    reliability::ScenarioConfig cfg;
    cfg.scheme = kind;
    cfg.mix = faults::FaultMix::Inherent();
    cfg.working_rows = 1;
    cfg.lines_per_row = 4;
    cfg.seed = bench::kBenchSeed + 99;
    const reliability::WeightedScenarioState state =
        reliability::RunWeightedMonteCarlo(cfg, tilt, kTrials);
    const reliability::WeightedEstimate est =
        reliability::EstimateWeightedRate(reliability::TiltSampler(tilt),
                                          state.tally,
                                          reliability::WeightedEvent::kFailure);
    tail.AddRow({ecc::ToString(kind), util::Table::Sci(est.estimate),
                 util::Table::Sci(est.std_error),
                 util::Table::Fixed(est.ess, 1),
                 util::Table::Sci(est.naive_equiv_trials),
                 util::Table::Sci(est.acceleration)});
  }
  std::cout << "-- importance-sampled rare tail (lambda = 1.6e-5, forced "
               "2..6 faults) --\n";
  report.Emit("rare_tail_is", tail);

  std::cout << "Shape check: PAIR-4's SDC stays orders of magnitude below\n"
               "XED/IECC across the sweep; DUO's SDC is comparable to PAIR\n"
               "while paying bus bandwidth (F4) for it. The IS tail table\n"
               "resolves ~1e-12 probabilities with >=100x naive-equivalent\n"
               "acceleration at the same trial budget.\n";
  return 0;
}
