// Tests for the crash-isolated out-of-process experiment runner:
// util::Subprocess plumbing, the length-prefixed result frame, the worker
// payload codec, the append-only results journal (golden JSONL forms, torn
// final lines), the cell_spec_digest journal key, the deterministic
// self-fault hook, and the supervisor itself — retries, watchdog,
// quarantine, journaled resume, and the headline guarantee that
// out-of-process sweeps are byte-identical to in-process ones.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "defenses/trace_defense.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/proc_runner.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "util/subprocess.hpp"
#include "workload/website.hpp"

namespace stob::exp {
namespace {

// Small, fast site profiles so whole-grid tests run in well under a second.
std::vector<workload::SiteProfile> tiny_sites(std::size_t n) {
  std::vector<workload::SiteProfile> sites;
  for (std::size_t i = 0; i < n; ++i) {
    workload::SiteProfile s;
    s.name = "tiny" + std::to_string(i);
    s.html_mu = 8.5 + 0.3 * static_cast<double>(i);
    s.objects_mean = 3.0 + static_cast<double>(i);
    s.object_mu = 8.0;
    s.parallel_connections = 2;
    sites.push_back(s);
  }
  return sites;
}

/// Fresh per-test file path (the pid keeps parallel ctest runs apart).
std::filesystem::path temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" + info->name() + "_" +
                           stem + "_" + std::to_string(::getpid());
  return std::filesystem::temp_directory_path() / name;
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& stem) : path(temp_path(stem)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
};

/// Read a (nonblocking) parent-side pipe to EOF after the child exited.
std::string drain_to_eof(int fd) {
  std::string out;
  char tmp[512];
  for (;;) {
    const ssize_t n = util::read_some(fd, tmp, sizeof(tmp));
    if (n > 0) {
      out.append(tmp, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;           // EOF
    if (errno != EAGAIN) break;  // real error
  }
  return out;
}

// -------------------------------------------------------------- subprocess

TEST(Subprocess, CallbackModeShipsResultFrame) {
  util::Subprocess::Options opts;
  opts.child_fn = [](int fd) { return util::write_frame(fd, "hello from child") ? 0 : 1; };
  util::Subprocess child = util::Subprocess::spawn(opts);
  const util::ExitStatus st = child.wait();  // child exit closes the pipe
  EXPECT_TRUE(st.clean());
  const auto payload = util::parse_frame(drain_to_eof(child.result_fd()));
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello from child");
}

TEST(Subprocess, ExecModeReportsExitStatus) {
  util::Subprocess::Options ok;
  ok.argv = {"/bin/true"};
  EXPECT_TRUE(util::Subprocess::spawn(ok).wait().clean());

  util::Subprocess::Options fail;
  fail.argv = {"/bin/false"};
  const util::ExitStatus st = util::Subprocess::spawn(fail).wait();
  EXPECT_TRUE(st.exited);
  EXPECT_NE(st.exit_code, 0);
}

TEST(Subprocess, ExecFailureIs127WithStderrMessage) {
  util::Subprocess::Options opts;
  opts.argv = {"/no/such/binary/anywhere"};
  util::Subprocess child = util::Subprocess::spawn(opts);
  const util::ExitStatus st = child.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 127);
  EXPECT_NE(drain_to_eof(child.stderr_fd()).find("execv"), std::string::npos);
}

TEST(Subprocess, SignalDeathIsDecoded) {
  util::Subprocess::Options opts;
  opts.child_fn = [](int) {
    ::raise(SIGKILL);
    return 0;
  };
  const util::ExitStatus st = util::Subprocess::spawn(opts).wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);
  EXPECT_FALSE(st.clean());
}

TEST(Subprocess, ThrowingChildFnExits125) {
  util::Subprocess::Options opts;
  opts.child_fn = [](int) -> int { throw std::runtime_error("boom"); };
  const util::ExitStatus st = util::Subprocess::spawn(opts).wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 125);
}

TEST(ResultFrame, RoundTripAndTornDetection) {
  // Binary-hostile payload: embedded NUL and a high byte.
  std::string payload = "payload ";
  payload.push_back('\0');
  payload.push_back('\x01');
  payload += " bytes";
  payload.push_back('\xff');

  std::string buf;
  util::append_frame(buf, payload);
  const auto full = util::parse_frame(buf);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, payload);

  // Every strict prefix is torn: no frame, never garbage.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_FALSE(util::parse_frame(std::string_view(buf).substr(0, cut)).has_value());
  }
  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_FALSE(util::parse_frame(bad_magic).has_value());
}

// ------------------------------------------------------------ JSON dialect

TEST(JsonEscape, RoundTripsHostileStrings) {
  std::string hostile = "quote\" slash\\ nl\n cr\r tab\t";
  hostile.push_back('\0');
  hostile += "high\xc3\xa9";
  std::string escaped;
  obs::json_escape(escaped, hostile);
  // One printable 7-bit line: that is what keeps the journal's JSONL records
  // self-delimiting whatever a worker wrote to stderr.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    EXPECT_LT(static_cast<unsigned char>(c), 0x7f);
  }
  EXPECT_EQ(obs::json_unescape(escaped), hostile);
}

// ------------------------------------------------ journal: golden + replay

TEST(JournalGolden, CellLineFormatIsPinned) {
  obs::JournalCell cell;
  cell.digest = "abc123";
  cell.job = 7;
  cell.attempts = 2;
  cell.payload = "hi";
  EXPECT_EQ(obs::to_json_line(cell),
            "{\"kind\":\"cell\",\"digest\":\"abc123\",\"job\":7,\"attempts\":2,"
            "\"payload\":\"6869\"}");
}

TEST(JournalGolden, CrashLineFormatIsPinned) {
  obs::CrashRecord crash;
  crash.job = 3;
  crash.digest = "d00d";
  crash.attempts = 3;
  crash.outcome = "signal";
  crash.signal_no = 9;
  crash.exit_code = 0;
  crash.stderr_tail = "last\nline";
  EXPECT_EQ(obs::to_json_line(crash),
            "{\"kind\":\"crash\",\"digest\":\"d00d\",\"job\":3,\"attempts\":3,"
            "\"outcome\":\"signal\",\"signal\":9,\"exit\":0,\"stderr_tail\":\"last\\nline\"}");
}

TEST(Journal, HexCodecRoundTripsAllBytes) {
  std::string all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
  const std::string hex = obs::hex_encode(all);
  EXPECT_EQ(hex.size(), 512u);
  EXPECT_EQ(obs::hex_decode(hex), all);
  EXPECT_EQ(obs::hex_encode("hi"), "6869");
  EXPECT_EQ(obs::hex_decode("686"), "h");  // torn trailing nibble ignored
}

TEST(Journal, AppendLoadRoundTripIsLossless) {
  TempFile tmp("journal");
  obs::JournalCell cell;
  cell.digest = "digest-a";
  cell.job = 4;
  cell.attempts = 1;
  cell.payload = std::string("bin\0ary\xff", 8);
  obs::CrashRecord crash;
  crash.job = 9;
  crash.digest = "digest-b";
  crash.attempts = 3;
  crash.outcome = "timeout";
  crash.signal_no = 9;
  crash.exit_code = 0;
  crash.stderr_tail = "tail with \"quotes\" and\nnewlines";
  {
    obs::Journal j(tmp.path);
    j.append(cell);
    j.append(crash);
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_EQ(loaded.malformed_lines, 0u);
  ASSERT_EQ(loaded.cells.size(), 1u);
  ASSERT_EQ(loaded.crashes.size(), 1u);
  EXPECT_EQ(loaded.cells[0], cell);
  EXPECT_EQ(loaded.crashes[0], crash);
}

TEST(Journal, TornFinalLineIsSkippedNotFatal) {
  TempFile tmp("torn");
  {
    obs::Journal j(tmp.path);
    obs::JournalCell a;
    a.digest = "da";
    a.job = 0;
    a.payload = "one";
    obs::JournalCell b;
    b.digest = "db";
    b.job = 1;
    b.payload = "two";
    j.append(a);
    j.append(b);
  }
  // Simulate SIGKILL mid-append: a third record cut off mid-payload, no
  // trailing newline, odd number of hex digits.
  {
    std::ofstream out(tmp.path, std::ios::binary | std::ios::app);
    out << "{\"kind\":\"cell\",\"digest\":\"dc\",\"job\":2,\"attempts\":1,\"payload\":\"746";
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  ASSERT_EQ(loaded.cells.size(), 2u);
  EXPECT_EQ(loaded.malformed_lines, 1u);
  EXPECT_EQ(loaded.cells[1].payload, "two");
}

TEST(Journal, MissingFileLoadsEmpty) {
  const obs::Journal::Loaded loaded = obs::Journal::load("/no/such/dir/journal.jsonl");
  EXPECT_TRUE(loaded.cells.empty());
  EXPECT_TRUE(loaded.crashes.empty());
}

TEST(JournalGolden, IndexLineFormatIsPinned) {
  obs::IndexEntry e;
  e.digest = "feedface";
  e.bytes = 1234;
  EXPECT_EQ(obs::to_json_line(e), "{\"kind\":\"index\",\"digest\":\"feedface\",\"bytes\":1234}");
}

TEST(Journal, IndexEntriesRoundTrip) {
  TempFile tmp("index");
  obs::IndexEntry a;
  a.digest = "aaaa";
  a.bytes = 10;
  obs::IndexEntry b;
  b.digest = "bbbb";
  b.bytes = 0;
  {
    obs::Journal j(tmp.path);
    j.append(a);
    j.append(b);
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_EQ(loaded.malformed_lines, 0u);
  ASSERT_EQ(loaded.index.size(), 2u);
  EXPECT_EQ(loaded.index[0], a);
  EXPECT_EQ(loaded.index[1], b);
}

TEST(Journal, TornMidFileEntryFollowedByValidLinesIsSkippedWithWarning) {
  // A crash can tear an entry in the *middle* of the file when a later append
  // lands on the same physical line (the torn record had no trailing
  // newline). The loader must skip the torn head, recover the glued-on valid
  // record, and keep every later line.
  obs::JournalCell a;
  a.digest = "da";
  a.job = 0;
  a.attempts = 1;
  a.payload = "one";
  obs::JournalCell b;
  b.digest = "db";
  b.job = 1;
  b.attempts = 1;
  b.payload = "two";
  obs::JournalCell c;
  c.digest = "dc";
  c.job = 2;
  c.attempts = 1;
  c.payload = "three";

  TempFile tmp("torn_mid");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << obs::to_json_line(a) << "\n";
    // Record torn mid-payload, with record b appended onto the same line.
    const std::string torn = obs::to_json_line(c).substr(0, 30);
    out << torn << obs::to_json_line(b) << "\n";
    out << obs::to_json_line(c) << "\n";
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_EQ(loaded.malformed_lines, 1u);
  ASSERT_EQ(loaded.cells.size(), 3u);
  EXPECT_EQ(loaded.cells[0], a);
  EXPECT_EQ(loaded.cells[1], b);  // recovered from the torn line
  EXPECT_EQ(loaded.cells[2], c);
}

TEST(Journal, TornEntryWholeLineGarbageDoesNotPoisonLaterLines) {
  obs::JournalCell a;
  a.digest = "da";
  a.job = 0;
  a.attempts = 1;
  a.payload = "one";
  TempFile tmp("torn_garbage");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "{\"kind\":\"cell\",\"digest\":\"dx\",\"job\":9,\"attempts\"garbage\n";
    out << std::string(64, '\xff') << "\n";
    out << obs::to_json_line(a) << "\n";
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_EQ(loaded.malformed_lines, 2u);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells[0], a);
}

TEST(Journal, NonCanonicalRecordBytesAreRejected) {
  // Only byte-exact canonical lines count as finished work: a record with
  // reordered keys or extra whitespace is treated as torn, never trusted.
  TempFile tmp("noncanon");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "{\"kind\":\"cell\",\"job\":7,\"digest\":\"abc\",\"attempts\":1,\"payload\":\"\"}\n";
  }
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_TRUE(loaded.cells.empty());
  EXPECT_EQ(loaded.malformed_lines, 1u);
}

// ------------------------------------------------------------------ codec

TEST(JobCodec, RoundTripIsResultsIdentical) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(1);
  grid.samples = 1;
  grid.base_seed = 99;
  RunOptions opts;
  opts.collect_metrics = true;
  opts.trace_capacity = 4096;
  opts.check_invariants = true;

  WorkerPayload payload;
  payload.result = run_job(grid, grid.job(0), opts);
  obs::ProfRecord rec;
  rec.id = 0x1234;
  rec.parent = 0x5678;
  rec.depth = 2;
  rec.worker = 1;
  rec.name = "page_load";
  rec.start_ns = 10;
  rec.wall_ns = 20;
  rec.cpu_ns = 15;
  rec.pool_hits = 3;
  rec.pool_misses = 1;
  payload.prof_records.push_back(rec);

  const std::string bytes = encode_worker_payload(payload);
  const WorkerPayload decoded = decode_worker_payload(bytes);
  EXPECT_TRUE(results_identical(payload.result, decoded.result));
  EXPECT_EQ(decoded.result.spec.seed, payload.result.spec.seed);
  ASSERT_EQ(decoded.prof_records.size(), 1u);
  EXPECT_EQ(decoded.prof_records[0].name, "page_load");
  EXPECT_EQ(decoded.prof_records[0].id, 0x1234u);
  EXPECT_EQ(decoded.prof_records[0].wall_ns, 20);
}

TEST(JobCodec, RejectsTruncationVersionSkewAndTrailingBytes) {
  WorkerPayload payload;
  payload.result.spec.index = 3;
  payload.result.metrics = "m";
  const std::string bytes = encode_worker_payload(payload);
  for (std::size_t cut : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(decode_worker_payload(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "cut=" << cut;
  }
  std::string skewed = bytes;
  skewed[0] = static_cast<char>(kWorkerPayloadVersion + 1);
  EXPECT_THROW(decode_worker_payload(skewed), std::runtime_error);
  EXPECT_THROW(decode_worker_payload(bytes + "x"), std::runtime_error);
}

// ------------------------------------------------------------- fault plan

TEST(WorkerFaultPlan, ParsesSpecsAndRejectsGarbage) {
  EXPECT_FALSE(WorkerFaultPlan::parse("").enabled());
  const WorkerFaultPlan crash = WorkerFaultPlan::parse("crash");
  EXPECT_EQ(crash.kind, WorkerFaultPlan::Kind::Crash);
  EXPECT_DOUBLE_EQ(crash.rate, 1.0);
  const WorkerFaultPlan hang = WorkerFaultPlan::parse("hang:0.25");
  EXPECT_EQ(hang.kind, WorkerFaultPlan::Kind::Hang);
  EXPECT_DOUBLE_EQ(hang.rate, 0.25);
  EXPECT_STREQ(WorkerFaultPlan::parse("exit:0.5").kind_name(), "exit");
  EXPECT_FALSE(WorkerFaultPlan::parse("crash:0").enabled());

  EXPECT_THROW(WorkerFaultPlan::parse("segv"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:nope"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:0.5x"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:1.5"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:-0.1"), std::invalid_argument);
}

TEST(WorkerFaultPlan, CoinIsDeterministicAndSparesFinalAttempt) {
  const WorkerFaultPlan plan = WorkerFaultPlan::parse("crash:0.5");
  std::size_t hits = 0;
  for (std::size_t job = 0; job < 200; ++job) {
    const bool first = plan.should_inject(job, 0, 3);
    EXPECT_EQ(first, plan.should_inject(job, 0, 3));  // pure function
    if (first) ++hits;
    // The final attempt is exempt below rate 1, so every cell eventually
    // converges to a fault-free result — the CI byte-identity gate.
    EXPECT_FALSE(plan.should_inject(job, 2, 3));
  }
  EXPECT_GT(hits, 50u);  // the coin actually lands both ways
  EXPECT_LT(hits, 150u);

  const WorkerFaultPlan always = WorkerFaultPlan::parse("exit:1");
  EXPECT_TRUE(always.should_inject(0, 2, 3));  // rate >= 1 hits final attempts
}

// ------------------------------------------------- cell digest (journal key)

ExperimentGrid digest_grid() {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 2;
  grid.defenses = {{"none", nullptr}, {"front", nullptr}};
  grid.ccas = {"cubic", "bbr"};
  grid.base_seed = 42;
  return grid;
}

TEST(CellDigest, GoldenStableAndDistinct) {
  const ExperimentGrid grid = digest_grid();
  RunOptions opts;

  // Golden: the key is an on-disk format — a digest change silently
  // invalidates every existing journal, so it must fail loudly here first.
  EXPECT_EQ(cell_digest(grid, 0, opts),
            "610c1c1c238ed4909294e2ee487e1ae4f8e108b09f4d3c5cdf38e7ea64639ad3");
  EXPECT_EQ(cell_digest(grid, 5, opts),
            "5a05ce7716a12cd169124a3c618b43022fa6dec786c89099cf2f5027040de6e4");

  // Stability: pure function of the cell, independent of execution knobs.
  RunOptions other = opts;
  other.jobs = 7;
  other.proc.workers = 3;
  other.proc.retries = 9;
  other.proc.resume = true;
  other.proc.journal_path = "/tmp/x";
  EXPECT_EQ(cell_digest(grid, 0, opts), cell_digest(grid, 0, other));

  // Every cell's key is distinct.
  std::set<std::string> keys;
  for (std::size_t i = 0; i < grid.job_count(); ++i) keys.insert(cell_digest(grid, i, opts));
  EXPECT_EQ(keys.size(), grid.job_count());
}

TEST(CellDigest, ChangesWithAnyCellShapingInput) {
  const ExperimentGrid grid = digest_grid();
  RunOptions opts;
  // Job 3 decomposes to site 0, sample 0, defense 1, cca 1 (cca fastest).
  ASSERT_EQ(grid.job(3).site, 0u);
  ASSERT_EQ(grid.job(3).defense, 1u);
  ASSERT_EQ(grid.job(3).cca, 1u);
  const std::string base = cell_digest(grid, 3, opts);

  ExperimentGrid g2 = digest_grid();
  g2.base_seed = 43;
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.sites[0].name = "renamed";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  // Renaming a site the cell does not use leaves its key alone: resume
  // replays exactly the cells whose own coordinates are unchanged.
  g2 = digest_grid();
  g2.sites[1].name = "renamed";
  EXPECT_EQ(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.defenses[1].name = "tamaraw";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.ccas[1] = "reno";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  // RunOptions fields that shape the payload bytes are part of the key.
  RunOptions o2 = opts;
  o2.collect_metrics = true;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
  o2 = opts;
  o2.trace_capacity = 128;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
  o2 = opts;
  o2.check_invariants = true;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
}

// ------------------------------------------------------ supervisor (fork)

/// Fork-mode options: no exec, workers run `run_cell` in the forked child.
ProcOptions fork_opts(std::size_t workers) {
  ProcOptions proc;
  proc.workers = workers;
  proc.job_timeout = Duration::seconds(30);
  proc.backoff_base = Duration::millis(1);  // keep retry tests fast
  proc.backoff_cap = Duration::millis(8);
  return proc;
}

std::string digest_of(std::size_t i) { return "digest-" + std::to_string(i); }
std::string payload_of(std::size_t i) { return "payload-" + std::to_string(i); }

TEST(ProcRunner, PayloadsArriveInIndexOrder) {
  ProcReport report;
  const auto payloads = run_cells(8, fork_opts(3), digest_of, payload_of, &report);
  ASSERT_EQ(payloads.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(payloads[i].has_value());
    EXPECT_EQ(*payloads[i], payload_of(i));
  }
  EXPECT_EQ(report.cells, 8u);
  EXPECT_EQ(report.ran, 8u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ProcRunner, RejectsZeroWorkersAndResumeWithoutJournal) {
  EXPECT_THROW(run_cells(1, ProcOptions{}, digest_of, payload_of, nullptr),
               std::runtime_error);
  ProcOptions proc = fork_opts(1);
  proc.resume = true;
  EXPECT_THROW(run_cells(1, proc, digest_of, payload_of, nullptr), std::runtime_error);
}

TEST(ProcRunner, InjectedCrashesAreRetriedToConvergence) {
  ProcOptions proc = fork_opts(2);
  proc.fault_spec = "crash:0.5";
  proc.retries = 3;
  ProcReport report;
  const auto payloads = run_cells(8, proc, digest_of, payload_of, &report);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(payloads[i].has_value());
    EXPECT_EQ(*payloads[i], payload_of(i));  // byte-identical to fault-free
  }
  EXPECT_GT(report.injected_faults, 0u);
  EXPECT_EQ(report.retries, report.injected_faults);  // every fault recovered
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ProcRunner, CellFailingAllAttemptsIsQuarantined) {
  TempFile tmp("quarantine");
  ProcOptions proc = fork_opts(2);
  proc.fault_spec = "exit:1";  // rate 1: final attempts fault too
  proc.retries = 1;
  proc.journal_path = tmp.path.string();
  ProcReport report;
  const auto payloads = run_cells(3, proc, digest_of, payload_of, &report);
  for (const auto& p : payloads) EXPECT_FALSE(p.has_value());
  EXPECT_EQ(report.quarantined, 3u);
  EXPECT_EQ(report.ran, 0u);
  ASSERT_EQ(report.failures.size(), 3u);
  for (const obs::CrashRecord& f : report.failures) {
    EXPECT_EQ(f.outcome, "exit");
    EXPECT_EQ(f.exit_code, 3);  // execute_worker_fault's exit code
    EXPECT_EQ(f.attempts, 2u);
  }
  // The structured crash report is journaled...
  const obs::Journal::Loaded loaded = obs::Journal::load(tmp.path);
  EXPECT_EQ(loaded.crashes.size(), 3u);
  EXPECT_TRUE(loaded.cells.empty());

  // ...and crash records are NOT finished cells: a fault-free resume re-runs
  // every quarantined cell (the condition may have been transient).
  ProcOptions retry = fork_opts(2);
  retry.journal_path = tmp.path.string();
  retry.resume = true;
  ProcReport report2;
  const auto again = run_cells(3, retry, digest_of, payload_of, &report2);
  EXPECT_EQ(report2.journal_hits, 0u);
  EXPECT_EQ(report2.ran, 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(*again[i], payload_of(i));
}

TEST(ProcRunner, SignalDeathIsReportedAsSignal) {
  ProcOptions proc = fork_opts(1);
  proc.fault_spec = "crash:1";
  proc.retries = 0;
  ProcReport report;
  run_cells(1, proc, digest_of, payload_of, &report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].outcome, "signal");
  EXPECT_EQ(report.failures[0].signal_no, SIGKILL);
}

TEST(ProcRunner, WatchdogKillsHangs) {
  ProcOptions proc = fork_opts(2);
  proc.fault_spec = "hang:1";
  proc.retries = 0;
  proc.job_timeout = Duration::millis(200);
  ProcReport report;
  const auto payloads = run_cells(2, proc, digest_of, payload_of, &report);
  EXPECT_FALSE(payloads[0].has_value());
  ASSERT_EQ(report.failures.size(), 2u);
  for (const obs::CrashRecord& f : report.failures) {
    EXPECT_EQ(f.outcome, "timeout");
    EXPECT_EQ(f.signal_no, SIGKILL);
  }
}

TEST(ProcRunner, WorkerStderrTailLandsInCrashReport) {
  ProcOptions proc = fork_opts(1);
  proc.retries = 0;
  ProcReport report;
  run_cells(
      1, proc, digest_of,
      [](std::size_t) -> std::string {
        std::fprintf(stderr, "worker about to die: reason=%d\n", 42);
        std::fflush(stderr);
        throw std::runtime_error("cell exploded");
      },
      &report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].outcome, "exit");
  EXPECT_EQ(report.failures[0].exit_code, 125);  // Subprocess's child_fn-threw code
  EXPECT_NE(report.failures[0].stderr_tail.find("reason=42"), std::string::npos);
}

TEST(ProcRunner, JournalResumeSkipsFinishedCells) {
  TempFile tmp("resume");
  ProcOptions proc = fork_opts(2);
  proc.journal_path = tmp.path.string();
  ProcReport first;
  const auto payloads = run_cells(6, proc, digest_of, payload_of, &first);
  EXPECT_EQ(first.ran, 6u);

  ProcOptions again = proc;
  again.resume = true;
  ProcReport second;
  // A resumed run that re-ran anything would produce the poisoned payload
  // and fail the comparison below.
  const auto replayed = run_cells(
      6, again, digest_of, [](std::size_t) -> std::string { return "RE-RAN"; }, &second);
  EXPECT_EQ(second.journal_hits, 6u);
  EXPECT_EQ(second.ran, 0u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(replayed[i], payloads[i]);
}

TEST(ProcRunner, ResumeToleratesTornTailAndRunsTheRest) {
  TempFile tmp("torn_resume");
  ProcOptions proc = fork_opts(2);
  proc.journal_path = tmp.path.string();
  run_cells(4, proc, digest_of, payload_of, nullptr);
  {
    // SIGKILL mid-append: half a record with no newline.
    std::ofstream out(tmp.path, std::ios::binary | std::ios::app);
    out << "{\"kind\":\"cell\",\"digest\":\"digest-9";
  }
  ProcOptions again = proc;
  again.resume = true;
  ProcReport report;
  const auto payloads = run_cells(6, again, digest_of, payload_of, &report);
  EXPECT_EQ(report.journal_hits, 4u);
  EXPECT_EQ(report.ran, 2u);  // cells 4 and 5 were never journaled
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(*payloads[i], payload_of(i));
}

// ----------------------------------------- run_grid: proc == in-process

TEST(RunGridProc, ByteIdenticalToInProcessAtAnyWorkerCount) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 2;
  const auto split = defenses::make_policy_defense("split");
  grid.defenses = {{"none", nullptr}, {"split", split.get()}};
  grid.base_seed = 20260808;

  RunOptions opts;
  opts.jobs = 2;
  opts.collect_metrics = true;
  opts.trace_capacity = 4096;
  opts.check_invariants = true;
  const std::vector<JobResult> in_process = run_grid(grid, opts);

  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    RunOptions proc_opts = opts;
    proc_opts.proc = fork_opts(workers);
    ProcReport report;
    proc_opts.proc_report = &report;
    const std::vector<JobResult> out_of_process = run_grid(grid, proc_opts);
    ASSERT_EQ(out_of_process.size(), in_process.size());
    for (std::size_t i = 0; i < in_process.size(); ++i) {
      EXPECT_TRUE(results_identical(in_process[i], out_of_process[i]))
          << "job " << i << " differs at workers=" << workers;
      // The seed a worker process derived equals the in-process one: seeds
      // are keyed by job index, never by worker or process identity.
      EXPECT_EQ(out_of_process[i].spec.seed, job_seed(grid.base_seed, i));
    }
    EXPECT_EQ(report.ran, grid.job_count());
    EXPECT_EQ(report.quarantined, 0u);
  }
}

TEST(RunGridProc, InjectedFaultsDoNotChangeResults) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 1;
  grid.base_seed = 7;
  RunOptions opts;
  opts.jobs = 1;
  const std::vector<JobResult> in_process = run_grid(grid, opts);

  RunOptions faulted = opts;
  faulted.proc = fork_opts(2);
  faulted.proc.fault_spec = "crash:0.5";
  faulted.proc.retries = 3;
  ProcReport report;
  faulted.proc_report = &report;
  const std::vector<JobResult> out = run_grid(grid, faulted);
  for (std::size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_TRUE(results_identical(in_process[i], out[i])) << "job " << i;
  }
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(RunGridProc, CheckDeterminismPassesInProcMode) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(1);
  grid.samples = 2;
  grid.base_seed = 3;
  RunOptions opts;
  opts.jobs = 2;
  opts.check_determinism = true;  // compares against a serial in-process run
  opts.proc = fork_opts(2);
  EXPECT_NO_THROW(run_grid(grid, opts));
}

TEST(RunGridProc, QuarantinedCellsYieldPlaceholders) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(1);
  grid.samples = 2;
  grid.base_seed = 3;
  RunOptions opts;
  opts.proc = fork_opts(2);
  opts.proc.fault_spec = "exit:1";
  opts.proc.retries = 0;
  ProcReport report;
  opts.proc_report = &report;
  const std::vector<JobResult> results = run_grid(grid, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(report.quarantined, 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].completed);
    EXPECT_EQ(results[i].spec.index, i);  // placeholder still carries coords
  }
}

// --------------------------------------------------- CLI flag round trips

TEST(ProcCli, FlagsMapOntoProcOptions) {
  const char* argv[] = {"tool",      "--proc-workers", "4",          "--job-timeout", "2.5",
                        "--retries", "5",              "--journal",  "/tmp/j.jsonl",  "--resume",
                        "--inject-worker-fault",       "crash:0.25"};
  const Cli cli = parse_cli(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const ProcOptions proc = proc_options_from_cli(cli);
  EXPECT_EQ(proc.workers, 4u);
  EXPECT_EQ(proc.job_timeout.ns(), Duration::millis(2500).ns());
  EXPECT_EQ(proc.retries, 5u);
  EXPECT_EQ(proc.journal_path, "/tmp/j.jsonl");
  EXPECT_TRUE(proc.resume);
  EXPECT_EQ(proc.fault_spec, "crash:0.25");
  ASSERT_FALSE(proc.worker_argv.empty());
  EXPECT_EQ(proc.worker_argv.size(), std::size(argv));  // verbatim re-exec base
  EXPECT_EQ(proc.worker_argv[0], "tool");
  EXPECT_FALSE(proc.worker_job.has_value());
}

TEST(ProcCli, WorkerFlagsSelectWorkerMode) {
  const char* argv[] = {"tool", "--proc-workers",       "2", "--worker-job",
                        "17",   "--worker-fd",          "5", "--worker-fault",
                        "hang", "--worker-prof-domain", "987654321"};
  const Cli cli = parse_cli(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const ProcOptions proc = proc_options_from_cli(cli);
  ASSERT_TRUE(proc.worker_job.has_value());
  EXPECT_EQ(*proc.worker_job, 17u);
  EXPECT_EQ(proc.worker_fd, 5);
  EXPECT_EQ(proc.worker_fault, "hang");
  EXPECT_TRUE(proc.worker_profile);
  EXPECT_EQ(proc.worker_prof_domain, 987654321u);
}

TEST(ProcCli, ResumeWithoutJournalIsHardError) {
  const char* argv[] = {"tool", "--resume"};
  EXPECT_THROW(parse_cli(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(ProcCli, MalformedFaultSpecIsHardError) {
  const char* argv[] = {"tool", "--inject-worker-fault", "explode:often"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(ProcCli, MalformedTimeoutOrRetriesIsHardError) {
  const char* bad_timeout[] = {"tool", "--job-timeout", "soon"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(bad_timeout)), std::invalid_argument);
  const char* bad_retries[] = {"tool", "--retries", "-1"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(bad_retries)), std::invalid_argument);
}

}  // namespace
}  // namespace stob::exp
