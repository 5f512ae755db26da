// End-to-end kill-and-resume determinism against the real pairsim binary
// (path injected as PAIRSIM_BINARY): SIGKILL and SIGTERM land on a live
// campaign process, the rerun resumes from the surviving checkpoint, and
// the final merged report is byte-identical to an uninterrupted run. Also
// covers the CLI-boundary failure modes: corrupted checkpoints,
// malformed --shard specs and out-of-range trace requests exit nonzero with
// a one-line diagnostic.
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
/// stderr to `err_path` when one is given.
pid_t Spawn(const std::vector<std::string>& args,
            const std::string& log_path, const std::string& err_path = "") {
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

Outcome Wait(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  Outcome out;
  out.exited = WIFEXITED(status);
  if (out.exited) out.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) out.signal = WTERMSIG(status);
  return out;
}

Outcome RunPairsim(const std::vector<std::string>& args,
                   const std::string& log_path,
                   const std::string& err_path = "") {
  return Wait(Spawn(args, log_path, err_path));
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
  struct Case {
    std::vector<std::string> args;
    const char* expect;
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
      {{"campaign", "run", "--checkpoint", TempPath("d5.json"), "--shard",
        "0/2", "--json", TempPath("d5_out.json")},
       "merge"},
  };
  int i = 0;
  for (const Case& c : cases) {
    const std::string log = TempPath("diag" + std::to_string(i++) + ".log");
    const Outcome out = RunPairsim(c.args, log);
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.code, 1) << ReadAll(log);
    const std::string text = ReadAll(log);
    EXPECT_NE(text.find(c.expect), std::string::npos) << text;
    // One-line diagnostic: a single "pairsim: ..." line, no stack spew.
    EXPECT_NE(text.find("pairsim: "), std::string::npos) << text;
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

}  // namespace

#else

TEST(CampaignCli, SkippedOnNonPosix) { GTEST_SKIP(); }

#endif
