// End-to-end kill-and-resume determinism against the real pairsim binary
// (path injected as PAIRSIM_BINARY): SIGKILL and SIGTERM land on a live
// campaign process, the rerun resumes from the surviving checkpoint, and
// the final merged report is byte-identical to an uninterrupted run. Also
// covers the CLI-boundary failure modes: corrupted checkpoints,
// malformed --shard specs, out-of-range trace requests and malformed flag
// values exit nonzero with a one-line diagnostic; and pins the config
// hashes that let old checkpoints resume and merge.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/checkpoint.hpp"
#include "util/atomic_file.hpp"

namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "pair_campaign_cli_" + name;
}

/// For files the test itself creates: a checkpoint left by a previous run
/// would be silently resumed (or, if corrupted, rejected) instead of the
/// fresh campaign the test expects.
std::string FreshPath(const std::string& name) {
  const std::string path = TempPath(name);
  unlink(path.c_str());
  return path;
}

bool FileExists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Forks and execs pairsim with stdout+stderr redirected to `log_path`, or
/// stderr to `err_path` when one is given, and PAIR_TRIALS set to
/// `pair_trials` when that is not empty.
pid_t Spawn(const std::vector<std::string>& args,
            const std::string& log_path, const std::string& err_path = "",
            const std::string& pair_trials = "") {
  static const std::string binary = PAIRSIM_BINARY;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    // A CI-wide PAIR_TRIALS would override the --trials these tests pin.
    unsetenv("PAIR_TRIALS");
    if (!pair_trials.empty()) setenv("PAIR_TRIALS", pair_trials.c_str(), 1);
    const int fd =
        open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    if (!err_path.empty()) {
      const int err =
          open(err_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (err >= 0) {
        dup2(err, STDERR_FILENO);
        close(err);
      }
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

struct Outcome {
  bool exited = false;    // normal exit (vs signal death)
  int code = -1;          // exit code when exited
  int signal = 0;         // terminating signal otherwise
};

Outcome FromStatus(int status) {
  Outcome out;
  out.exited = WIFEXITED(status);
  if (out.exited) out.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) out.signal = WTERMSIG(status);
  return out;
}

Outcome Wait(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return FromStatus(status);
}

Outcome RunPairsim(const std::vector<std::string>& args,
                   const std::string& log_path,
                   const std::string& err_path = "",
                   const std::string& pair_trials = "") {
  return Wait(Spawn(args, log_path, err_path, pair_trials));
}

/// Blocks until `path` exists (the campaign flushed its first checkpoint).
void AwaitFile(const std::string& path) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!FileExists(path)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << path;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Flags for a small-but-interruptible reliability campaign: single worker
/// and a checkpoint after every shard, so a signal between the first flush
/// and completion always leaves a resumable file behind.
std::vector<std::string> CampaignArgs(const std::string& checkpoint,
                                      unsigned trials) {
  return {"campaign",   "run",
          "--checkpoint", checkpoint,
          "--trials",   std::to_string(trials),
          "--seed",     "9",
          "--threads",  "1",
          "--checkpoint-every", "1"};
}

std::vector<std::string> WithJson(std::vector<std::string> args,
                                  const std::string& json) {
  args.push_back("--json");
  args.push_back(json);
  return args;
}

constexpr unsigned kTrials = 96;  // 6 shards of 16

TEST(CampaignCli, KillAndResumeIsByteIdentical) {
  // Uninterrupted baseline.
  const std::string base_ck = FreshPath("kill_base_ck.json");
  const std::string base_json = FreshPath("kill_base.json");
  const Outcome base = RunPairsim(WithJson(CampaignArgs(base_ck, kTrials), base_json),
                           TempPath("kill_base.log"));
  ASSERT_TRUE(base.exited);
  ASSERT_EQ(base.code, 0) << ReadAll(TempPath("kill_base.log"));

  // Victim: SIGKILL as soon as the first checkpoint hits disk. SIGKILL is
  // unmaskable — this is the torn-write case AtomicWriteFile exists for.
  const std::string ck = FreshPath("kill_ck.json");
  const pid_t victim =
      Spawn(CampaignArgs(ck, kTrials), TempPath("kill_victim.log"));
  AwaitFile(ck);
  kill(victim, SIGKILL);
  const Outcome died = Wait(victim);
  // Either the kill landed mid-run (signal death) or the campaign won the
  // race and completed; both must resume/no-op to the identical report.
  EXPECT_TRUE(died.signal == SIGKILL || (died.exited && died.code == 0));

  // The checkpoint left behind must be readable and resumable.
  const std::string out_json = FreshPath("kill_out.json");
  const Outcome resumed = RunPairsim(WithJson(CampaignArgs(ck, kTrials), out_json),
                              TempPath("kill_resume.log"));
  ASSERT_TRUE(resumed.exited);
  ASSERT_EQ(resumed.code, 0) << ReadAll(TempPath("kill_resume.log"));

  EXPECT_EQ(ReadAll(out_json), ReadAll(base_json));
  EXPECT_EQ(ReadAll(ck), ReadAll(base_ck));
}

TEST(CampaignCli, SigtermDrainsAndExitsResumable) {
  const std::string base_ck = FreshPath("term_base_ck.json");
  const std::string base_json = FreshPath("term_base.json");
  const Outcome base = RunPairsim(WithJson(CampaignArgs(base_ck, kTrials), base_json),
                           TempPath("term_base.log"));
  ASSERT_TRUE(base.exited);
  ASSERT_EQ(base.code, 0);

  const std::string ck = FreshPath("term_ck.json");
  const pid_t victim =
      Spawn(CampaignArgs(ck, kTrials), TempPath("term_victim.log"));
  AwaitFile(ck);
  kill(victim, SIGTERM);
  const Outcome drained = Wait(victim);
  ASSERT_TRUE(drained.exited) << "SIGTERM must drain, not kill";
  // Exit 3 = "interrupted, resumable"; 0 only if the signal lost the race
  // with completion.
  EXPECT_TRUE(drained.code == 3 || drained.code == 0)
      << "exit " << drained.code << "\n"
      << ReadAll(TempPath("term_victim.log"));
  if (drained.code == 3) {
    const std::string log = ReadAll(TempPath("term_victim.log"));
    EXPECT_NE(log.find("rerun the same command to resume"),
              std::string::npos)
        << log;
  }

  const std::string out_json = FreshPath("term_out.json");
  const Outcome resumed = RunPairsim(WithJson(CampaignArgs(ck, kTrials), out_json),
                              TempPath("term_resume.log"));
  ASSERT_TRUE(resumed.exited);
  ASSERT_EQ(resumed.code, 0) << ReadAll(TempPath("term_resume.log"));
  EXPECT_EQ(ReadAll(out_json), ReadAll(base_json));
}

TEST(CampaignCli, CorruptedCheckpointIsRejectedNotMerged) {
  // Produce a valid completed checkpoint, then corrupt one body byte.
  const std::string ck = FreshPath("corrupt_ck.json");
  ASSERT_EQ(RunPairsim(CampaignArgs(ck, 32), TempPath("corrupt_run.log")).code, 0);
  std::string text = ReadAll(ck);
  const auto at = text.find("\"state\"");
  ASSERT_NE(at, std::string::npos);
  const auto digit = text.find_first_of("123456789", at);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '1' ? '2' : '1';
  pair_ecc::util::AtomicWriteFile(ck, text);

  // Neither resume nor merge may accept it.
  const Outcome resume = RunPairsim(CampaignArgs(ck, 32), TempPath("corrupt_resume.log"));
  ASSERT_TRUE(resume.exited);
  EXPECT_EQ(resume.code, 1);
  EXPECT_NE(ReadAll(TempPath("corrupt_resume.log")).find("checksum mismatch"),
            std::string::npos);

  const Outcome merge =
      RunPairsim({"campaign", "merge", ck}, TempPath("corrupt_merge.log"));
  ASSERT_TRUE(merge.exited);
  EXPECT_EQ(merge.code, 1);
  EXPECT_NE(ReadAll(TempPath("corrupt_merge.log")).find("checksum mismatch"),
            std::string::npos);
}

TEST(CampaignCli, UsableDiagnosticsForBadInvocations) {
  const std::string trace = std::string(PAIR_TEST_DATA_DIR) + "/tiny_trace.txt";
  // 200000 levels of nesting overflowed the parser's stack (exit 139).
  const std::string deep = TempPath("deep.json");
  pair_ecc::util::AtomicWriteFile(deep, std::string(200000, '[') + "]");
  struct Case {
    std::vector<std::string> args;
    const char* expect;
    const char* pair_trials = "";
  };
  const std::vector<Case> cases = {
      {{"campaign", "run", "--checkpoint", TempPath("d1.json"), "--shard",
        "nope"},
       "invalid shard spec"},
      {{"campaign", "run", "--checkpoint", TempPath("d2.json"), "--shard",
        "4/2"},
       "invalid shard spec"},
      {{"campaign", "run", "--trials", "8"},
       "requires --checkpoint"},
      {{"campaign", "run", "--checkpoint", TempPath("d3.json"), "--trials",
        "10k"},
       "invalid non-negative integer '10k'"},
      {{"campaign", "run", "--checkpoint", TempPath("d4.json"), "--mode",
        "system", "--trace", TempPath("no_such_trace.txt")},
       "cannot open"},
      {{"campaign", "merge"}, "no checkpoint files given"},
      {{"campaign", "merge", deep}, "at byte 64: nesting deeper than 64"},
      {{"campaign", "run", "--checkpoint", TempPath("d5.json"), "--shard",
        "0/2", "--json", TempPath("d5_out.json")},
       "merge"},
      // Each of these exited 0 or gave a misleading message before flags
      // were declared in one option table per command.
      {{"codes", "--bogus", "1"}, "unknown flag --bogus"},
      {{"reliability", "--trials", "5", "--trials", "7"},
       "flag --trials given more than once"},
      {{"system", "--sparing", "7"}, "flag --sparing: want 0 or 1"},
      {{"system", "--fault-rate", "nan"},
       "flag --fault-rate: invalid number 'nan'"},
      {{"system", "--reads", "nan"}, "flag --reads: invalid number 'nan'"},
      // Demand flags the chosen demand ignores: each of these exited 0 and
      // ran as if the flag were absent.
      {{"system", "--stream-intensity", "0.9"},
       "flag --stream-intensity: requires --trace-gen"},
      {{"system", "--burst", "1"}, "flag --burst: requires --trace-gen"},
      {{"system", "--gap", "5"}, "flag --gap: requires --trace-gen"},
      {{"system", "--hot-rows", "8"}, "flag --hot-rows: requires --trace-gen"},
      {{"system", "--trace-gen", "tensor", "--pattern", "random"},
       "flag --pattern: not used with --trace-gen"},
      {{"system", "--trace-gen", "tensor", "--intensity", "0.1"},
       "flag --intensity: not used with --trace-gen"},
      {{"system", "--trace", trace, "--pattern", "random"},
       "flag --pattern: not used with --trace"},
      {{"system", "--trace", trace, "--intensity", "0.1"},
       "flag --intensity: not used with --trace"},
      {{"system", "--trace", trace, "--reads", "0.5"},
       "flag --reads: not used with --trace"},
      {{"system", "--trace", trace, "--requests", "10"},
       "flag --requests: not used with --trace"},
      // The demand scan decides from the input's length whether trials
      // replay it from memory; there is no flag for it.
      {{"system", "--trace", trace, "--stream", "1"},
       "unknown flag --stream"},
      {{"campaign", "run", "--mode", "system", "--checkpoint",
        TempPath("d6.json"), "--hot-rows", "8"},
       "flag --hot-rows: requires --trace-gen"},
      {{"campaign", "run", "--mode", "system", "--checkpoint",
        TempPath("d7.json"), "--trace-gen", "tensor", "--intensity", "0.1"},
       "flag --intensity: not used with --trace-gen"},
      {{"campaign", "run", "--mode", "system", "--checkpoint",
        TempPath("d8.json"), "--trace", trace, "--reads", "0.5"},
       "flag --reads: not used with --trace"},
      // Out-of-range values the library contracts caught, with a message
      // naming a source file and a C++ expression instead of the flag.
      {{"perf", "--reads", "1.7"}, "flag --reads: must be in [0,1]"},
      {{"perf", "--intensity", "0"}, "flag --intensity: must be in (0,1]"},
      {{"trace", "--gen", "tensor", "--reads", "2", "--out",
        TempPath("d9_trace.txt")},
       "flag --reads: must be in [0,1]"},
      {{"system", "--reads", "1.5"}, "flag --reads: must be in [0,1]"},
      {{"system", "--trace-gen", "tensor", "--stream-intensity", "1.5"},
       "flag --stream-intensity: must be in (0,1]"},
      {{"lifetime", "--rate", "-1"}, "flag --rate: must be in [0, 708.39]"},
      // Zero or oversized integer shape flags: the same route, through
      // StreamConfig's zero-sized-field contract or TimingParams'
      // refresh-room contract.
      {{"perf", "--ranks", "0", "--requests", "100"},
       "flag --ranks: must be positive"},
      {{"perf", "--requests", "0"}, "flag --requests: must be positive"},
      {{"perf", "--ranks", "300"}, "flag --ranks: must be in [1, 174]"},
      {{"perf", "--pattern", "strided", "--stride", "0"},
       "flag --stride: must be positive"},
      {{"trace", "--banks", "0", "--out", TempPath("d10_trace.txt")},
       "flag --banks: must be positive"},
      {{"trace", "--requests", "0", "--out", TempPath("d11_trace.txt")},
       "flag --requests: must be positive"},
      {{"trace", "--ranks", "0", "--out", TempPath("d12_trace.txt")},
       "flag --ranks: must be positive"},
      {{"trace", "--rows", "0", "--out", TempPath("d13_trace.txt")},
       "flag --rows: must be positive"},
      {{"trace", "--cols", "0", "--out", TempPath("d14_trace.txt")},
       "flag --cols: must be positive"},
      {{"trace", "--burst", "0", "--out", TempPath("d15_trace.txt")},
       "flag --burst: must be positive"},
      {{"trace", "--hot-rows", "0", "--out", TempPath("d16_trace.txt")},
       "flag --hot-rows: must be in [1, 64]"},
      {{"trace", "--rows", "8", "--hot-rows", "9", "--out",
        TempPath("d17_trace.txt")},
       "flag --hot-rows: must be in [1, 8]"},
      {{"system", "--requests", "0"}, "flag --requests: must be positive"},
      {{"system", "--trace-gen", "batch", "--burst", "0"},
       "flag --burst: must be positive"},
      {{"system", "--trace-gen", "batch", "--hot-rows", "65"},
       "flag --hot-rows: must be in [1, 64]"},
      // Zero trials: these exited 0 with a "95% CI [0, 0]" certainty and
      // NaN rates.
      {{"reliability", "--trials", "0"}, "flag --trials: must be positive"},
      {{"lifetime", "--trials", "0"}, "flag --trials: must be positive"},
      {{"system", "--trials", "0"}, "flag --trials: must be positive"},
      {{"campaign", "run", "--checkpoint", TempPath("d18.json"), "--trials",
        "0"},
       "flag --trials: must be positive"},
      {{"campaign", "run", "--mode", "system", "--checkpoint",
        TempPath("d19.json"), "--trials", "0"},
       "flag --trials: must be positive"},
      {{"campaign", "run", "--checkpoint", TempPath("d20.json")},
       "PAIR_TRIALS: must be positive",
       "0"},
      // A checkpoint write that fails in a worker thread: these aborted
      // ("terminate called ...", exit 134) while one thread exited 1.
      {{"campaign", "run", "--mode", "reliability", "--checkpoint",
        TempPath("missing/c.ckpt"), "--trials", "200", "--threads", "4"},
       "cannot create"},
      {{"campaign", "run", "--mode", "system", "--checkpoint",
        TempPath("missing/c.ckpt"), "--trials", "200", "--threads", "4"},
       "cannot create"},
  };
  int i = 0;
  for (const Case& c : cases) {
    const std::string log = TempPath("diag" + std::to_string(i++) + ".log");
    const Outcome out = RunPairsim(c.args, log, "", c.pair_trials);
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.code, 1) << ReadAll(log);
    const std::string text = ReadAll(log);
    EXPECT_NE(text.find(c.expect), std::string::npos) << text;
    // One-line diagnostic: a single "pairsim: ..." line, no stack spew.
    EXPECT_EQ(text.rfind("pairsim: ", 0), 0u) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
  }
}

// Trial counts past 2^32 - 1 are read as 64-bit, as the campaign takes
// them: one 16-trial shard of a 2^32-trial campaign runs and records the
// full count.
TEST(CampaignCli, TrialCountsBeyondThirtyTwoBitsRunOneShard) {
  const std::string ck = FreshPath("big_trials_ck.json");
  const std::string log = TempPath("big_trials.log");
  const Outcome out = RunPairsim({"campaign", "run", "--trials", "4294967296",
                                  "--shard", "0/268435456", "--checkpoint", ck},
                                 log);
  ASSERT_TRUE(out.exited);
  ASSERT_EQ(out.code, 0) << ReadAll(log);
  const pair_ecc::telemetry::JsonValue body =
      pair_ecc::telemetry::ReadCheckpointFile(ck);
  EXPECT_EQ(body.Find("trials")->AsInt(), 4294967296);
  EXPECT_EQ(body.Find("end_shard")->AsInt(), 1);
  EXPECT_TRUE(body.Find("complete")->AsBool());
}

// A campaign's identity is its checkpoint's config object and the CRC of
// that object's serialized form. Both are pinned here as literals: a
// changed key, order or JSON type would refuse to resume or merge every
// checkpoint written before it.
TEST(CampaignCli, ConfigHashesArePinned) {
  const std::string trace = std::string(PAIR_TEST_DATA_DIR) + "/tiny_trace.txt";
  struct Form {
    const char* name;
    std::vector<std::string> flags;
    const char* config_hash;
    const char* config;
  };
  const std::vector<Form> forms = {
      {"reliability",
       {},
       "bd10b669",
       R"({
  "mode": "reliability",
  "scheme": "pair4",
  "mix": "inherent",
  "faults_per_trial": 2,
  "working_rows": 2,
  "lines_per_row": 8,
  "seed": 1,
  "trials": 16
}
)"},
      {"tilted",
       {"--tilt", "rate", "--tilt-lambda", "2", "--tilt-proposal", "4"},
       "c1f2d318",
       R"({
  "mode": "reliability",
  "scheme": "pair4",
  "mix": "inherent",
  "faults_per_trial": 2,
  "working_rows": 2,
  "lines_per_row": 8,
  "seed": 1,
  "trials": 16,
  "tilt": "rate",
  "tilt_lambda": 2,
  "tilt_proposal": 4,
  "tilt_min": 0,
  "tilt_max": 64
}
)"},
      {"pattern",
       {"--mode", "system", "--pattern", "random"},
       "0065eede",
       R"({
  "mode": "system",
  "scheme": "pair4",
  "mix": "inherent",
  "geometry": "ddr4-3200",
  "scheduler": "frfcfs",
  "faults_per_mcycle": 20,
  "horizon_cycles": 0,
  "scrub_interval_cycles": 5000,
  "scrub_rows_per_step": 1,
  "demand_writeback": 1,
  "due_threshold": 3,
  "repair_latency_cycles": 2000,
  "enable_sparing": 1,
  "working_rows": 2,
  "lines_per_row": 4,
  "seed": 1,
  "trials": 16,
  "tck_ns": 0.625,
  "pattern": "random",
  "read_fraction": 0.67,
  "requests": 400,
  "intensity": 0.05
}
)"},
      {"trace_gen",
       {"--mode", "system", "--trace-gen", "tensor"},
       "fa431fa8",
       R"({
  "mode": "system",
  "scheme": "pair4",
  "mix": "inherent",
  "geometry": "ddr4-3200",
  "scheduler": "frfcfs",
  "faults_per_mcycle": 20,
  "horizon_cycles": 0,
  "scrub_interval_cycles": 5000,
  "scrub_rows_per_step": 1,
  "demand_writeback": 1,
  "due_threshold": 3,
  "repair_latency_cycles": 2000,
  "enable_sparing": 1,
  "working_rows": 2,
  "lines_per_row": 4,
  "seed": 1,
  "trials": 16,
  "tck_ns": 0.625,
  "trace_gen": "tensor",
  "requests": 400,
  "read_fraction": 0.67,
  "stream_intensity": 0.25,
  "burst": 256,
  "gap": 2000,
  "hot_rows": 4
}
)"},
      {"trace_split",
       {"--mode", "system", "--trace", trace, "--split-levels", "1,2"},
       "9b4ab447",
       R"({
  "mode": "system",
  "scheme": "pair4",
  "mix": "inherent",
  "geometry": "ddr4-3200",
  "scheduler": "frfcfs",
  "faults_per_mcycle": 20,
  "horizon_cycles": 0,
  "scrub_interval_cycles": 5000,
  "scrub_rows_per_step": 1,
  "demand_writeback": 1,
  "due_threshold": 3,
  "repair_latency_cycles": 2000,
  "enable_sparing": 1,
  "working_rows": 2,
  "lines_per_row": 4,
  "seed": 1,
  "trials": 16,
  "tck_ns": 0.625,
  "trace_crc32": "c19268fa",
  "trace_requests": 40,
  "split_levels": "1,2",
  "split_replicas": 4
}
)"},
  };
  for (const Form& form : forms) {
    const std::string ck = FreshPath(std::string("pin_") + form.name + ".json");
    const std::string log = TempPath(std::string("pin_") + form.name + ".log");
    std::vector<std::string> args = {"campaign", "run",  "--checkpoint",
                                     ck,         "--trials", "16"};
    args.insert(args.end(), form.flags.begin(), form.flags.end());
    const Outcome out = RunPairsim(args, log);
    ASSERT_TRUE(out.exited) << form.name;
    ASSERT_EQ(out.code, 0) << form.name << "\n" << ReadAll(log);
    const pair_ecc::telemetry::JsonValue body =
        pair_ecc::telemetry::ReadCheckpointFile(ck);
    EXPECT_EQ(body.Find("config_hash")->AsString(), form.config_hash)
        << form.name;
    EXPECT_EQ(body.Find("config")->Dump(), form.config) << form.name;
  }
}

// --help or -h anywhere in argv prints the usage text to stdout and exits 0,
// even where a flag value is expected.
TEST(CampaignCli, HelpPrintsUsageToStdoutAndExitsZero) {
  const std::vector<std::vector<std::string>> cases = {
      {"--help"}, {"system", "--help"}, {"campaign", "run", "-h"},
      {"reliability", "--scheme", "pair4", "--help"}};
  for (const auto& args : cases) {
    const std::string out_log = TempPath("help_out.log");
    const std::string err_log = TempPath("help_err.log");
    const Outcome out = RunPairsim(args, out_log, err_log);
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.code, 0) << args.back() << ReadAll(err_log);
    EXPECT_EQ(ReadAll(out_log).rfind("usage: pairsim ", 0), 0u)
        << ReadAll(out_log);
    EXPECT_EQ(ReadAll(err_log), "");
  }
}

// A trace request outside the timing model is rejected by the library's
// demand scan, with one diagnostic line naming the problem.
TEST(CampaignCli, OutOfRangeBankTraceFailsWithOneLine) {
  const std::string trace = FreshPath("bad_bank.trace");
  {
    std::ofstream out(trace);
    out << "0 R 0 0 0\n5 R 99 0 0\n";
  }
  const std::string log = TempPath("bad_bank.log");
  const Outcome out =
      RunPairsim({"system", "--trace", trace, "--trials", "1"}, log);
  ASSERT_TRUE(out.exited);
  EXPECT_EQ(out.code, 1);
  const std::string text = ReadAll(log);
  EXPECT_EQ(text.rfind("pairsim: ", 0), 0u) << text;
  EXPECT_NE(text.find("outside the timing model"), std::string::npos) << text;
  EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
}


/// Like RunPairsim, but a child still running after `limit` is killed (and
/// so reported as not exited).
Outcome RunPairsimWithin(const std::vector<std::string>& args,
                         const std::string& log_path,
                         std::chrono::seconds limit) {
  const pid_t pid = Spawn(args, log_path);
  const auto deadline = std::chrono::steady_clock::now() + limit;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      return Wait(pid);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return FromStatus(status);
}

// The seed of a flag fuzzer. Each command's flags are read from its own
// --help, which is generated from the table the parser reads, so a flag
// cannot be parsed without being listed. Every numeric flag given "nan" or
// "10k" must fail fast with one diagnostic line: a NaN intensity used to
// hang the stream generator. Every flag the earlier hand-written parsers
// read must still be listed.
TEST(PairsimCli, EveryNumericFlagRejectsMalformedValuesFast) {
  using Names = std::vector<std::string>;
  const auto join = [](std::initializer_list<Names> groups) {
    Names all;
    for (const Names& group : groups)
      all.insert(all.end(), group.begin(), group.end());
    return all;
  };
  const Names scenario = {"scheme", "mix", "seed", "threads", "trials"};
  const Names tilt = {"tilt", "tilt-lambda", "tilt-proposal", "tilt-min",
                      "tilt-max"};
  const Names fleet = {"fleet-devices", "fleet-years", "trial-years"};
  const Names system = {
      "geometry", "scheduler", "fault-rate", "horizon", "scrub-interval",
      "scrub-rows", "writeback", "due-threshold", "repair-latency", "sparing",
      "rows", "lines", "trace", "pattern", "reads", "requests", "intensity",
      "trace-gen", "stream-intensity", "burst", "gap", "hot-rows"};
  const Names campaign = {"mode", "checkpoint", "checkpoint-every", "shard",
                          "max-shards", "json"};
  const std::vector<std::pair<Names, Names>> commands = {
      {{"codes"}, {}},
      {{"reliability"}, join({scenario, tilt, {"faults", "json"}})},
      {{"lifetime"}, join({scenario, {"epochs", "rate", "scrub", "json"}})},
      {{"perf"},
       {"scheme", "pattern", "reads", "requests", "intensity", "stride",
        "xor-hash", "ranks", "seed", "trace", "save-trace"}},
      {{"system"}, join({scenario, system, {"json"}})},
      {{"trace"},
       {"gen", "requests", "ranks", "banks", "rows", "cols",
        "stream-intensity", "reads", "burst", "gap", "hot-rows", "seed",
        "out"}},
      {{"campaign", "run"}, join({campaign, fleet, scenario, tilt, {"faults"}})},
      {{"campaign", "run", "--mode", "system"},
       join({campaign, fleet, scenario, system,
             {"split-levels", "split-replicas"}})},
      {{"campaign", "merge"}, join({{"json"}, fleet})},
  };
  const std::string log = TempPath("sweep.log");
  int numeric = 0;
  for (const auto& [words, flags] : commands) {
    std::string command;
    for (const std::string& word : words) command += word + " ";
    const Outcome help = RunPairsim(join({words, {"--help"}}), log);
    ASSERT_TRUE(help.exited && help.code == 0) << command;
    const std::string text = ReadAll(log);
    for (const std::string& flag : flags)
      EXPECT_NE(text.find("\n  --" + flag + " "), std::string::npos)
          << command << "--help lacks --" << flag;

    // "  --name N", "  --name X" and "  --name 0|1" list the numeric flags.
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  --", 0) != 0) continue;
      const std::size_t space = line.find(' ', 4);
      const std::string name = line.substr(4, space - 4);
      const std::string kind = line.substr(space + 1);
      if (kind != "N" && kind != "X" && kind != "0|1") continue;
      ++numeric;
      for (const char* value : {"nan", "10k"}) {
        const std::string what = command + "--" + name + " " + value;
        const Outcome out = RunPairsimWithin(
            join({words, {"--" + name, value}}), log, std::chrono::seconds(20));
        ASSERT_TRUE(out.exited) << what << " did not finish";
        EXPECT_EQ(out.code, 1) << what;
        const std::string diag = ReadAll(log);
        EXPECT_EQ(diag.rfind("pairsim: flag --" + name + ": ", 0), 0u)
            << what << ": " << diag;
        EXPECT_EQ(diag.find('\n'), diag.size() - 1) << what << ": " << diag;
      }
    }
  }
  EXPECT_GE(numeric, 90);
}

}  // namespace

#else

TEST(CampaignCli, SkippedOnNonPosix) { GTEST_SKIP(); }

#endif
