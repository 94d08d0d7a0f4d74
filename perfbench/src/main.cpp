// The repository benchmark: seeded, named workloads through the library's
// public calls from one process. The thread pool runs at one lane for set-up
// and the single-user phases; the fleet scheduler runs at threads=4.
//
//   perfbench --workload personalize|fleet|generate --seed N --seconds S
//             --trace 0|1 --scratch DIR
//   perfbench --list
//
// Every run reports every end-to-end metric, so every workload runs the same
// three phases; the workload decides how large each phase is, so that its own
// phase takes more than half of the wall time, and the others at most a fifth
// each (the report prints each phase's share):
//
//   personalize  one user streams dialogue sets through
//                PersonalizationEngine::process at the paper-scaled engine
//                config, a durable CheckpointManager::save after each round,
//                and a final evaluate_per_set.
//   fleet        fleet::run_concurrent_fleet over more users than lanes,
//                users cycling through the six dataset profiles, an adapter
//                cache smaller than the user count, traffic recorded in
//                set-up and replayed. Training is light, evaluation heavy.
//   generate     a device-scale MiniLlm with random weights: interactive
//                replies one at a time through DecodeSession (fp32), and
//                offline batches of unique prompts and shared-prefix groups
//                through BatchedDecodeScheduler at fp32 and int8.
//
// All loops are closed: the next request is sent when the previous one
// completes. The amount of work is fixed by the workload and --seconds, not
// by machine speed, so sample counts, tail percentiles and rouge1 repeat
// exactly for one seed.
//
// Output: a human-readable report, then one JSON line holding correct,
// attempted, failed and the metrics (gated end-to-end ones with --trace 0,
// per-layer ones with --trace 1). perfbench/README.md defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/synthesizer.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/user_oracle.h"
#include "devicesim/memory_model.h"
#include "exp/experiment.h"
#include "fleet/scheduler.h"
#include "lexicon/lexicon.h"
#include "llm/batch_decode.h"
#include "llm/decode_session.h"
#include "llm/embedding_extractor.h"
#include "llm/minillm.h"
#include "llm/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "text/vocab.h"
#include "trace_windows.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace odlp;
using perfbench::SpanTotals;
using perfbench::TraceWindows;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Phase sizes at the reference --seconds (kReferenceSeconds); other values
// scale every count proportionally.
struct Workload {
  const char* name;
  const char* why;
  std::size_t p_sets;      // streamed sets of the personalization loop
  std::size_t f_users;     // users of one fleet run
  std::size_t f_runs;      // fleet runs
  std::size_t g_replies;   // interactive replies
  std::size_t g_batches;   // offline batches per precision
};

constexpr double kReferenceSeconds = 20.0;
constexpr std::size_t kFinetuneInterval = 80;  // paper 800, scaled

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"personalize",
       "one user streams 480 sets (6 rounds) through the paper's loop, "
       "about two thirds of wall: LoRA training and GEMM backward dominate",
       480, 12, 2, 30, 3},
      {"fleet",
       "16 concurrent-fleet runs of 12 users on 4 threads, a 6-adapter "
       "cache and replayed traffic, nearly 60% of wall: scheduler, adapter "
       "spill/reload and pool contention dominate",
       160, 12, 16, 36, 4},
      {"generate",
       "120 interactive replies and 10 fp32+int8 offline batches on a "
       "device-scale model, about 65% of wall: decode kernels, batch width "
       "and prefix forks dominate",
       80, 12, 2, 120, 10},
  };
  return list;
}

// Seed on which later performance claims are re-checked; never used while
// tuning a change.
constexpr std::uint64_t kHeldOutSeed = 2718281;

// Every seed personalizes the same deployed base model and decodes with the
// same device model: the workload seed varies the fleet's users, the prompts
// and the random streams, not the weights a device ships with.
constexpr std::uint64_t kBaseSeed = 20240623;

// Likewise the personalization loop serves one device owner, with one
// dialogue stream and held-out pool, on every seed; the seed varies the
// engine's random streams (buffer replacement, training order, synthesis).
// Across ten seeds the spread (inter-quartile range over median) of the
// loop's final ROUGE-1 was about 0.3 between owners and streams, which would
// hide an accuracy regression of the loop itself, and 0.06-0.11 between
// engine seeds.
constexpr std::uint64_t kPaperLoopSeed = 1402;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// The highest percentile of the ladder with at least ten samples beyond it
// (0 when even p50 has fewer).
double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

std::size_t scaled(std::size_t count, double factor, std::size_t minimum) {
  const double v = std::round(static_cast<double>(count) * factor);
  return std::max(minimum, static_cast<std::size_t>(v));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Registry deltas and wall time of one phase, summed over every stretch of
// the pass in which that phase ran. Output checks run outside the stretches,
// so their work never counts toward a phase's figures.
class PhaseDeltas {
 public:
  void begin() {
    before_ = obs::registry().snapshot();
    start_ = now_s();
  }

  void end() {
    wall_s_ += now_s() - start_;
    const obs::MetricsSnapshot after = obs::registry().snapshot();
    for (const obs::MetricSample& a : after.samples) {
      if (!a.scope.empty()) continue;
      const obs::MetricSample* b = before_.find(a.name);
      if (a.kind == obs::MetricSample::Kind::kCounter) {
        counters_[a.name] += a.counter - (b ? b->counter : 0);
      } else if (a.kind == obs::MetricSample::Kind::kHistogram) {
        Hist& h = hists_[a.name];
        h.bounds = a.bounds;
        h.buckets.resize(a.buckets.size(), 0);
        const bool had = b && b->buckets.size() == a.buckets.size();
        for (std::size_t i = 0; i < a.buckets.size(); ++i) {
          h.buckets[i] += a.buckets[i] - (had ? b->buckets[i] : 0);
        }
        h.count += a.hist.count - (b ? b->hist.count : 0);
        h.sum += a.hist.sum - (b ? b->hist.sum : 0.0);
      }
    }
  }

  double wall_s() const { return wall_s_; }

  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }

  double hist_mean(const std::string& name) const {
    const auto it = hists_.find(name);
    return it == hists_.end() || it->second.count == 0
               ? 0.0
               : it->second.sum / static_cast<double>(it->second.count);
  }

  // Quantile interpolated inside the bucket that holds the q-th sample, as
  // obs::Histogram::quantile does (without its min/max clamp).
  double hist_quantile(const std::string& name, double q) const {
    const auto it = hists_.find(name);
    if (it == hists_.end() || it->second.count == 0) return 0.0;
    const Hist& h = it->second;
    const double rank = std::max(1.0, std::round(q * static_cast<double>(h.count)));
    double cum = 0.0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const double in = static_cast<double>(h.buckets[b]);
      if (in == 0.0) continue;
      if (cum + in >= rank) {
        const double lo = b == 0 ? 0.0 : h.bounds[b - 1];
        const double hi = b < h.bounds.size() ? h.bounds[b] : h.bounds.back();
        return lo + (hi - lo) * (rank - cum) / in;
      }
      cum += in;
    }
    return h.bounds.back();
  }

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  obs::MetricsSnapshot before_;
  double start_ = 0.0;
  double wall_s_ = 0.0;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Hist> hists_;
};

// Opens a stretch of `phase` for the enclosing scope.
class PhaseScope {
 public:
  explicit PhaseScope(PhaseDeltas& phase) : phase_(phase) { phase_.begin(); }
  ~PhaseScope() { phase_.end(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseDeltas& phase_;
};

// Operation outcomes: every public call the benchmark makes and every
// output check counts as attempted, and a check that does not hold counts as
// failed. An exception ends the run without a result.
struct Ops {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

// Geometry of examples/quantized_decode.cpp: large enough that one decode
// step streams every weight through cache.
llm::ModelConfig device_model_config(std::size_t vocab) {
  llm::ModelConfig mc;
  mc.vocab_size = std::max<std::size_t>(2048, vocab);
  mc.dim = 384;
  mc.heads = 6;
  mc.layers = 4;
  mc.ff_hidden = 768;
  mc.max_seq_len = 48;
  return mc;
}

// Pool lanes for set-up and the single-user phases. On a shared 4-vCPU host
// a parallel region of the per-user model's small GEMMs waits for all four
// vCPUs at once: under host load the four-lane personalization loop ran up
// to 2.5x slower between runs, while the one-lane loop ran about 25% faster
// and lost at most about 15%. The fleet keeps its four threads, capped at
// the core count by its scheduler.
constexpr std::size_t kSingleUserLanes = 1;
constexpr std::size_t kFleetThreads = 4;
constexpr std::size_t kGenMaxNew = 24;
constexpr std::size_t kGenPromptMax = 20;
constexpr std::size_t kPrefixGroupSize = 4;  // sampling repeats per prompt
// One offline batch: requests with a prompt of their own, and shared-prefix
// groups of kPrefixGroupSize requests each.
constexpr std::size_t kBatchUnique = 6;
constexpr std::size_t kBatchGroups = 2;

exp::ExperimentConfig personalize_config(std::uint64_t seed,
                                         const std::string& cache_dir) {
  exp::ExperimentConfig c;  // paper-scaled defaults: 32 bins, k=3, r=8
  c.dataset = "MedDialog";
  c.method = "Ours";
  c.finetune_interval = kFinetuneInterval;
  c.eval_subset = 200;
  c.eval_repeats = 2;
  c.record_curve = false;
  c.cache_dir = cache_dir;
  c.seed = seed;
  c.base_seed = kBaseSeed;
  return c;
}

// The fleet shares the personalization user's base checkpoint (same
// geometry, pretraining and base seed), so set-up pretrains once.
fleet::ConcurrentFleetConfig fleet_config(std::uint64_t seed,
                                          std::size_t users,
                                          const std::string& cache_dir,
                                          const std::string& traffic_dir) {
  fleet::ConcurrentFleetConfig cc;
  exp::ExperimentConfig& t = cc.fleet.device_template;
  t.buffer_bins = 8;
  t.stream_size = 6;
  t.finetune_interval = 3;  // two rounds per user
  t.test_size = 48;
  t.eval_subset = 12;
  t.eval_repeats = 8;  // shared-prefix forks in the batched eval flush
  t.epochs = 1;
  t.synth_per_set = 1;
  t.record_curve = true;
  t.cache_dir = cache_dir;
  cc.fleet.num_devices = users;
  cc.fleet.seed_base = seed * 1000 + 1;
  cc.fleet.shared_base_seed = kBaseSeed;
  cc.fleet.traffic_dir = traffic_dir;
  const std::vector<data::DatasetProfile> profiles = data::all_profiles();
  for (std::size_t u = 0; u < users; ++u) {
    exp::ExperimentConfig o = t;
    o.dataset = profiles[u % profiles.size()].name;
    cc.user_overrides[u] = o;
  }
  cc.method = "Ours";
  cc.threads = kFleetThreads;
  cc.shards = 4;
  cc.adapter_cache_capacity = std::max<std::size_t>(1, users / 2);
  return cc;
}

// The per-user config run_concurrent_fleet derives for user `u`.
exp::ExperimentConfig fleet_user_config(const fleet::ConcurrentFleetConfig& cc,
                                        std::size_t u) {
  exp::ExperimentConfig ec = cc.user_overrides.at(u);
  ec.method = cc.method;
  ec.seed = cc.fleet.seed_base + u;
  ec.base_seed = cc.fleet.shared_base_seed;
  ec.traffic_replay_path =
      cc.fleet.traffic_dir + "/user-" + std::to_string(u) + ".obsf";
  return ec;
}

struct Setup {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  exp::ExperimentConfig pcfg;
  data::GeneratedDataset pdata;
  fleet::ConcurrentFleetConfig fcfg;
  // The device-scale decode model, once at fp32 and once quantized.
  std::unique_ptr<llm::MiniLlm> gen_fp32;
  std::unique_ptr<llm::MiniLlm> gen_int8;
  std::vector<std::vector<int>> prompts;
  double seconds = 0.0;
  double pretrain_s = 0.0;
  double generate_s = 0.0;
};

data::UserOracle make_oracle(const exp::ExperimentConfig& c) {
  return data::UserOracle(exp::experiment_data_seed(c) * 2654435761ull + 1,
                          lexicon::builtin_dictionary());
}

data::UserOracle paper_user_oracle() {
  return data::UserOracle(kPaperLoopSeed, lexicon::builtin_dictionary());
}

// Tokenizer build, base-model pretrain into a cold private cache, dataset
// generation and traffic recording, device model build and quantize.
std::unique_ptr<Setup> set_up(const Workload& w, double factor,
                              std::uint64_t seed, const std::string& dir) {
  fs::create_directories(dir + "/cache");
  fs::create_directories(dir + "/traffic");
  const double t0 = now_s();
  auto s = std::make_unique<Setup>();
  s->pcfg = personalize_config(seed, dir + "/cache");
  s->pcfg.stream_size = scaled(w.p_sets / kFinetuneInterval, factor, 1) *
                        kFinetuneInterval;

  double t = now_s();
  exp::make_base_model(s->pcfg, s->tokenizer);
  s->pretrain_s = now_s() - t;

  t = now_s();
  data::UserOracle oracle = paper_user_oracle();
  exp::ExperimentConfig paper_data = s->pcfg;
  paper_data.seed = kPaperLoopSeed;
  s->pdata = exp::make_experiment_dataset(paper_data, oracle);
  s->fcfg = fleet_config(seed, scaled(w.f_users, factor, 2), dir + "/cache",
                         dir + "/traffic");
  for (std::size_t u = 0; u < s->fcfg.fleet.num_devices; ++u) {
    exp::ExperimentConfig ec = fleet_user_config(s->fcfg, u);
    ec.traffic_record_path = ec.traffic_replay_path;
    ec.traffic_replay_path.clear();
    data::UserOracle user_oracle = make_oracle(ec);
    exp::make_experiment_dataset(ec, user_oracle);
  }
  // Interactive and offline prompts: generated dialogue questions across
  // every dataset profile, encoded by the device tokenizer.
  util::Rng prompt_rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (const data::DatasetProfile& profile : data::all_profiles()) {
    data::UserOracle o(prompt_rng.next_u64(), lexicon::builtin_dictionary());
    data::Generator gen(profile, o, prompt_rng.split());
    for (const data::DialogueSet& set : gen.generate(8, 0).stream) {
      s->prompts.push_back(
          s->tokenizer.encode_prompt(set.question, kGenPromptMax));
    }
  }
  s->generate_s = now_s() - t;

  const llm::ModelConfig mc = device_model_config(s->tokenizer.vocab().size());
  s->gen_fp32 = std::make_unique<llm::MiniLlm>(mc, kBaseSeed);
  s->gen_int8 = std::make_unique<llm::MiniLlm>(mc, kBaseSeed);
  s->gen_int8->set_inference_precision(nn::InferencePrecision::kInt8);
  s->seconds = now_s() - t0;
  return s;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct Samples {
  std::vector<double> select_ms;
  std::vector<double> round_s;
  std::vector<double> sets_per_s;
  std::vector<double> users_per_s;
  double rouge = 0.0;               // the personalization loop's final ROUGE-1
  std::vector<double> fleet_rouge;  // final ROUGE-1 of each fleet user
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> prime_ms;
  std::vector<double> step_ms;  // DecodeSession::step alone
  std::vector<double> tok_s_fp32;
  std::vector<double> tok_s_int8;
  double batch_run_s = 0.0;  // wall of every offline BatchedDecodeScheduler::run
  std::vector<double> ckpt_bytes;
  fleet::FleetRunStats fleet;  // last fleet run
  double gen_kv_bytes = 0.0;
};

// The phases of a pass, each with its own registry deltas.
struct Phases {
  PhaseDeltas personalize;  // process() and the rounds and saves it triggers
  PhaseDeltas eval;         // the loop's final evaluate_per_set
  PhaseDeltas fleet;        // run_concurrent_fleet
  PhaseDeltas generate;     // interactive replies and offline batches
};

// The personalization loop of one user, streamed in slices.
class PersonalizeLoop {
 public:
  PersonalizeLoop(const Setup& s, const std::string& dir)
      : s_(s),
        oracle_(paper_user_oracle()),
        model_(exp::make_base_model(s.pcfg, s.tokenizer)),
        extractor_(*model_, s.tokenizer),
        ckpt_(dir + "/ckpt", /*keep_last=*/2) {
    const exp::ExperimentConfig& c = s.pcfg;
    util::Rng engine_rng(exp::experiment_engine_seed(c));
    core::ParaphraseSynthesizer::Config synth_config;
    synth_config.sanity.mode = c.sanity_mode;
    synth_config.sanity.threshold = c.sanity_threshold;
    util::Rng synth_rng = engine_rng.split();
    util::Rng engine_ctor_rng = engine_rng.split();
    engine_ = std::make_unique<core::PersonalizationEngine>(
        *model_, s.tokenizer, extractor_, oracle_,
        lexicon::builtin_dictionary(), exp::make_policy(c.method),
        std::make_unique<core::ParaphraseSynthesizer>(
            lexicon::builtin_dictionary(), synth_rng, synth_config),
        exp::make_engine_config(c), engine_ctor_rng);
  }

  // The engine holds references into this object.
  PersonalizeLoop(const PersonalizeLoop&) = delete;
  PersonalizeLoop& operator=(const PersonalizeLoop&) = delete;

  // Streams sets [begin, end) of the user's stream; a round runs at every
  // engine interval and is followed by a durable checkpoint save.
  void stream(std::size_t begin, std::size_t end, Samples& out,
              PhaseDeltas& phase, Ops& ops) {
    const PhaseScope scope(phase);
    const double start = now_s();
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t rounds = engine_->stats().finetune_rounds;
      const double t0 = now_s();
      {
        ODLP_TRACE_SCOPE("bench.engine.process");
        engine_->process(s_.pdata.stream[i]);
      }
      ++ops.attempted;
      if (engine_->stats().finetune_rounds == rounds) {
        out.select_ms.push_back((now_s() - t0) * 1e3);
        continue;
      }
      std::uint64_t gen = 0;
      {
        ODLP_TRACE_SCOPE("bench.ckpt.save");
        gen = ckpt_.save(*model_, engine_->buffer(), s_.tokenizer.vocab(),
                         engine_->stats());
      }
      ++ops.attempted;
      out.round_s.push_back(now_s() - t0);
      out.ckpt_bytes.push_back(
          static_cast<double>(ckpt_.generation_bytes(gen)));
    }
    busy_s_ += now_s() - start;
  }

  // Final evaluation on the held-out subset, and the loop's checks against
  // the registry deltas of the streaming phase.
  void finish(Samples& out, Phases& phases, Ops& ops) {
    const exp::ExperimentConfig& c = s_.pcfg;
    out.sets_per_s.push_back(static_cast<double>(s_.pdata.stream.size()) /
                             busy_s_);
    std::vector<const data::DialogueSet*> eval_sets;
    const std::size_t n_eval = std::min(c.eval_subset, s_.pdata.test.size());
    for (std::size_t i = 0; i < n_eval; ++i) {
      eval_sets.push_back(&s_.pdata.test[i * s_.pdata.test.size() / n_eval]);
    }
    std::vector<double> per_set;
    {
      const PhaseScope scope(phases.eval);
      ODLP_TRACE_SCOPE("bench.engine.evaluate_per_set");
      per_set = engine_->evaluate_per_set(eval_sets, c.eval_repeats);
    }
    ++ops.attempted;
    out.rouge = mean(per_set);

    const core::EngineStats& st = engine_->stats();
    const PhaseDeltas& d = phases.personalize;
    const auto equal = [&](const char* counter, std::size_t stat) {
      return d.counter(counter) == static_cast<double>(stat);
    };
    ops.check(st.seen == st.admitted_free + st.admitted_replacing +
                             st.rejected + st.quarantined,
              "personalize: seen != admitted + rejected + quarantined");
    ops.check(equal("engine.seen.sets", st.seen) &&
                  equal("engine.admit.free", st.admitted_free) &&
                  equal("engine.admit.replace", st.admitted_replacing) &&
                  equal("engine.offer.reject", st.rejected) &&
                  equal("engine.offer.quarantine", st.quarantined),
              "personalize: registry deltas differ from EngineStats");
    ops.check(st.finetune_rounds == s_.pdata.stream.size() / kFinetuneInterval,
              "personalize: unexpected number of rounds");
  }

 private:
  const Setup& s_;
  data::UserOracle oracle_;
  std::unique_ptr<llm::MiniLlm> model_;
  llm::LlmEmbeddingExtractor extractor_;
  core::CheckpointManager ckpt_;
  std::unique_ptr<core::PersonalizationEngine> engine_;
  double busy_s_ = 0.0;
};

bool same_user_result(const exp::ExperimentResult& a,
                      const exp::ExperimentResult& b) {
  return a.final_rouge == b.final_rouge && a.final_per_set == b.final_per_set &&
         a.curve.seen() == b.curve.seen() &&
         a.curve.rouge() == b.curve.rouge() &&
         a.engine_stats.seen == b.engine_stats.seen &&
         a.annotation_requests == b.annotation_requests;
}

// Repeated concurrent fleet runs over the recorded traffic.
class FleetRuns {
 public:
  FleetRuns(const Setup& s, std::string dir) : s_(s), dir_(std::move(dir)) {}

  void run(Samples& out, PhaseDeltas& phase, Ops& ops) {
    fleet::ConcurrentFleetConfig cc = s_.fcfg;
    cc.spill_dir = dir_ + "/spill";
    fs::create_directories(cc.spill_dir);
    fleet::ConcurrentFleetResult res;
    {
      const PhaseScope scope(phase);
      ODLP_TRACE_SCOPE("bench.fleet.run_concurrent_fleet");
      res = fleet::run_concurrent_fleet(cc);
    }
    // The scheduler sizes the global pool to its own thread count.
    util::ThreadPool::global().resize(kSingleUserLanes);
    fs::remove_all(cc.spill_dir);
    ++ops.attempted;
    out.users_per_s.push_back(res.stats.users_per_second);
    out.fleet = res.stats;
    if (first_.empty()) {
      for (const exp::ExperimentResult& u : res.users) {
        out.fleet_rouge.push_back(u.final_rouge);
      }
      first_ = std::move(res.users);
      return;
    }
    bool same = res.users.size() == first_.size();
    for (std::size_t u = 0; same && u < first_.size(); ++u) {
      same = same_user_result(first_[u], res.users[u]);
    }
    ops.check(same, "fleet: a repeated run changed a user's result");
  }

  // One sampled user must equal a sequential run_experiment of its config
  // on the shared base.
  void finish(std::uint64_t seed, Ops& ops) {
    const std::size_t u = seed % s_.fcfg.fleet.num_devices;
    exp::ExperimentResult seq;
    {
      ODLP_TRACE_SCOPE("bench.exp.run_experiment");
      seq = exp::run_experiment(fleet_user_config(s_.fcfg, u));
    }
    ++ops.attempted;
    ops.check(!first_.empty() && same_user_result(seq, first_[u]),
              "fleet: user " + std::to_string(u) +
                  " differs from its sequential run_experiment");
  }

 private:
  const Setup& s_;
  std::string dir_;
  std::vector<exp::ExperimentResult> first_;
};

struct GenRequest {
  std::vector<int> prompt;
  std::uint64_t rng_seed;
};

int sample_token(const tensor::Tensor& logits, const llm::SamplerConfig& cfg,
                 util::Rng& rng) {
  return llm::sample_from_logits(logits.row(0), logits.cols(), cfg, rng);
}

// One offline batch at `model`'s precision: unique prompts plus
// evaluation-style shared-prefix groups at the engine's default decode
// width. Returns tokens per second; with `check`, every generation must
// equal a serial Sampler::generate_ids of the same request.
double offline_batch(llm::MiniLlm& model, const llm::SamplerConfig& cfg,
                     const std::vector<GenRequest>& unique,
                     const std::vector<GenRequest>& groups, bool check,
                     const char* precision, Samples& out, PhaseDeltas& phase,
                     Ops& ops) {
  llm::BatchedDecodeScheduler sched(model, core::EngineConfig{}.decode_batch);
  std::vector<std::pair<const std::vector<int>*, util::Rng>> requests;
  std::vector<std::size_t> tickets;
  double wall = 0.0;
  {
    const PhaseScope scope(phase);
    for (const GenRequest& r : unique) {
      tickets.push_back(sched.submit(r.prompt, cfg, util::Rng(r.rng_seed)));
      requests.emplace_back(&r.prompt, util::Rng(r.rng_seed));
    }
    for (const GenRequest& r : groups) {
      std::vector<util::Rng> rngs;
      for (std::size_t k = 0; k < kPrefixGroupSize; ++k) {
        rngs.emplace_back(r.rng_seed * 7 + k);
        requests.emplace_back(&r.prompt, rngs.back());
      }
      for (std::size_t t :
           sched.submit_shared_prefix(r.prompt, cfg, rngs, nullptr)) {
        tickets.push_back(t);
      }
    }
    const double t0 = now_s();
    {
      ODLP_TRACE_SCOPE("bench.batch_decode.run");
      sched.run();
    }
    wall = now_s() - t0;
  }
  out.batch_run_s += wall;
  ++ops.attempted;
  std::size_t tokens = 0;
  for (std::size_t t : tickets) tokens += sched.result(t).size();
  for (std::size_t i = 0; check && i < tickets.size(); ++i) {
    std::vector<int> serial;
    {
      ODLP_TRACE_SCOPE("bench.sampler.generate_ids");
      serial = llm::Sampler(model, cfg, requests[i].second)
                   .generate_ids(*requests[i].first);
    }
    ops.check(serial == sched.result(tickets[i]),
              std::string("generate: batched != serial at ") + precision);
  }
  return static_cast<double>(tokens) / wall;
}

llm::SamplerConfig generate_sampler() {
  llm::SamplerConfig cfg;
  cfg.temperature = 0.5f;
  cfg.max_new_tokens = kGenMaxNew;
  return cfg;
}

// Interactive reply `i`: one request at a time at fp32. The loop is
// Sampler's cached loop with a clock around each token.
void interactive_reply(Setup& s, std::size_t i, std::uint64_t seed,
                       Samples& out, PhaseDeltas& phase, Ops& ops) {
  llm::MiniLlm& model = *s.gen_fp32;
  const llm::SamplerConfig cfg = generate_sampler();
  const std::vector<int>& prompt = s.prompts[i % s.prompts.size()];
  util::Rng rng(seed * 31 + i);
  const util::Rng rng_copy = rng;
  std::vector<int> generated;
  {
    const PhaseScope scope(phase);
    llm::DecodeSession session(model);
    double t0 = now_s();
    const tensor::Tensor* logits = nullptr;
    {
      ODLP_TRACE_SCOPE("bench.decode.prime");
      logits = &session.prime(prompt);
    }
    out.prime_ms.push_back((now_s() - t0) * 1e3);
    bool first = true;
    while (!session.full()) {
      const int next = sample_token(*logits, cfg, rng);
      const double t1 = now_s();
      (first ? out.ttft_ms : out.tpot_ms).push_back((t1 - t0) * 1e3);
      first = false;
      t0 = t1;
      if (next == text::Vocab::kEos) break;
      generated.push_back(next);
      if (session.full() || generated.size() >= cfg.max_new_tokens) break;
      ODLP_TRACE_SCOPE("bench.decode.step");
      logits = &session.step(next);
      out.step_ms.push_back((now_s() - t1) * 1e3);
    }
  }
  ++ops.attempted;
  if (i % 4 != 0) return;
  std::vector<int> serial;
  {
    ODLP_TRACE_SCOPE("bench.sampler.generate_ids");
    serial = llm::Sampler(model, cfg, rng_copy).generate_ids(prompt);
  }
  ops.check(serial == generated,
            "generate: interactive reply differs from Sampler");
}

// Offline batch `b` at fp32, then the same batch at int8, so both
// precisions see the same stretch of host load. The first batch checks
// every generation against serial decoding.
void offline_batches(Setup& s, std::size_t b, std::uint64_t seed,
                     Samples& out, PhaseDeltas& phase, Ops& ops) {
  std::vector<GenRequest> unique;
  std::vector<GenRequest> groups;
  for (std::size_t i = 0; i < kBatchUnique + kBatchGroups; ++i) {
    GenRequest req{s.prompts[(i * 5 + 1) % s.prompts.size()], seed * 131 + i};
    (i < kBatchUnique ? unique : groups).push_back(std::move(req));
  }
  const llm::SamplerConfig cfg = generate_sampler();
  out.tok_s_fp32.push_back(offline_batch(*s.gen_fp32, cfg, unique, groups,
                                         b == 0, "fp32", out, phase, ops));
  out.tok_s_int8.push_back(offline_batch(*s.gen_int8, cfg, unique, groups,
                                         b == 0, "int8", out, phase, ops));
}

// One measured pass. The three phases are cut into kSlices slices that
// run round-robin, so each metric samples the whole pass rather than one
// stretch of it: host speed drifts over tens of seconds.
constexpr std::size_t kSlices = 6;

struct Pass {
  Samples samples;
  Phases phases;
  double wall_s = 0.0;
};

Pass run_pass(const Workload& w, double factor, Setup& s, std::uint64_t seed,
              const std::string& dir, Ops& ops) {
  Pass pass;
  Samples& out = pass.samples;
  Phases& ph = pass.phases;
  const double t0 = now_s();
  const std::size_t sets = s.pdata.stream.size();
  const std::size_t runs = scaled(w.f_runs, factor, 1);
  const std::size_t replies = scaled(w.g_replies, factor, 20);
  const std::size_t batches = scaled(w.g_batches, factor, 1);
  const auto range = [](std::size_t n, std::size_t k) {
    return std::make_pair(n * k / kSlices, n * (k + 1) / kSlices);
  };
  PersonalizeLoop loop(s, dir);
  FleetRuns fleet_runs(s, dir);
  for (std::size_t k = 0; k < kSlices; ++k) {
    const auto [p0, p1] = range(sets, k);
    loop.stream(p0, p1, out, ph.personalize, ops);
    for (auto [r, r1] = range(runs, k); r < r1; ++r) {
      fleet_runs.run(out, ph.fleet, ops);
    }
    for (auto [i, i1] = range(replies, k); i < i1; ++i) {
      interactive_reply(s, i, seed, out, ph.generate, ops);
    }
    for (auto [b, b1] = range(batches, k); b < b1; ++b) {
      offline_batches(s, b, seed, out, ph.generate, ops);
    }
  }
  loop.finish(out, ph, ops);
  fleet_runs.finish(seed, ops);
  out.gen_kv_bytes = static_cast<double>(
      devicesim::model_memory_ledger(*s.gen_fp32, 0,
                                     core::EngineConfig{}.decode_batch)
          .kv_cache_bytes);
  pass.wall_s = now_s() - t0;
  return pass;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string detail;  // median/tail/sample-count or source
};

// Sample count, median and tail of one sampled quantity; the tail is the
// highest percentile with at least ten samples beyond it.
std::string summary(const std::vector<double>& v) {
  char buf[160];
  if (v.size() <= 12) {
    std::string out = "n=" + std::to_string(v.size()) + " [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i ? " %.4g" : "%.4g", v[i]);
      out += buf;
    }
    return out + "]";
  }
  const double p = tail_percentile(v.size());
  if (p == 0.0) {
    std::snprintf(buf, sizeof(buf), "n=%zu median %.4g range %.4g..%.4g",
                  v.size(), median(v), quantile(v, 0.0), quantile(v, 1.0));
  } else {
    std::snprintf(buf, sizeof(buf), "n=%zu median %.4g p%g %.4g", v.size(),
                  median(v), p, quantile(v, p / 100.0));
  }
  return buf;
}

void add_sampled(std::vector<Metric>& m, const std::string& name,
                 const std::string& unit, double value,
                 const std::vector<double>& v, const char* what) {
  m.push_back({name, unit, value, summary(v) + " " + what});
}

// End-to-end quantities whose run-to-run spread on a shared 4-core host
// reaches or comes close to the largest allowed bound (see
// perfbench/README.md): they are reported with the per-layer metrics instead
// of being gated.
bool is_unsteady(const std::string& name) {
  for (const char* n : {"select_ms_tail", "ttft_ms_tail", "tpot_ms_tail",
                        "decode_tok_s_fp32", "users_per_s"}) {
    if (name == n) return true;
  }
  return false;
}

std::vector<Metric> end_to_end(const Pass& pass,
                               const std::vector<double>& setup_s) {
  const Samples& s = pass.samples;
  const auto tail = [](const std::vector<double>& v) {
    return quantile(v, tail_percentile(v.size()) / 100.0);
  };
  std::vector<Metric> m;
  add_sampled(m, "setup_s", "s", median(setup_s), setup_s, "set-ups");
  add_sampled(m, "sets_per_s", "1/s", median(s.sets_per_s), s.sets_per_s,
              "loops");
  add_sampled(m, "select_ms_p50", "ms", median(s.select_ms), s.select_ms,
              "process() without a round");
  add_sampled(m, "select_ms_tail", "ms", tail(s.select_ms), s.select_ms,
              "process() without a round");
  add_sampled(m, "round_s_p50", "s", median(s.round_s), s.round_s, "rounds");
  add_sampled(m, "users_per_s", "1/s", median(s.users_per_s), s.users_per_s,
              "fleet runs");
  m.push_back({"rouge1", "ratio", s.rouge,
               "final ROUGE-1 of the personalization loop"});
  add_sampled(m, "ttft_ms_p50", "ms", median(s.ttft_ms), s.ttft_ms, "replies");
  add_sampled(m, "ttft_ms_tail", "ms", tail(s.ttft_ms), s.ttft_ms, "replies");
  add_sampled(m, "tpot_ms_p50", "ms", median(s.tpot_ms), s.tpot_ms, "tokens");
  add_sampled(m, "tpot_ms_tail", "ms", tail(s.tpot_ms), s.tpot_ms, "tokens");
  add_sampled(m, "decode_tok_s_fp32", "tok/s", median(s.tok_s_fp32),
              s.tok_s_fp32, "batches");
  add_sampled(m, "decode_tok_s_int8", "tok/s", median(s.tok_s_int8),
              s.tok_s_int8, "batches");
  m.push_back({"peak_rss_mb", "MB", peak_rss_mb(), "VmHWM of this process"});
  return m;
}

// Layer of a span name: the src/ module that opens it.
std::string span_layer(const std::string& name) {
  static const std::vector<std::pair<const char*, const char*>> prefixes = {
      {"bench.", "bench"},  {"engine.", "core"}, {"synth.", "core"},
      {"ckpt.", "core"},    {"train.", "llm"},   {"decode.", "llm"},
      {"batch_decode.", "llm"}, {"tensor.", "tensor"}, {"pool.", "util"},
  };
  for (const auto& [prefix, layer] : prefixes) {
    if (name.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Each phase's share of the untraced pass's wall time; the rest is output
// checks and bookkeeping between phases.
struct PhaseShares {
  double personalize = 0.0;  // streaming loop and its final evaluation
  double fleet = 0.0;
  double generate = 0.0;
  double other = 0.0;
};

PhaseShares phase_shares(const Pass& pass) {
  const Phases& p = pass.phases;
  PhaseShares s;
  s.personalize =
      ratio(p.personalize.wall_s() + p.eval.wall_s(), pass.wall_s);
  s.fleet = ratio(p.fleet.wall_s(), pass.wall_s);
  s.generate = ratio(p.generate.wall_s(), pass.wall_s);
  s.other = 1.0 - s.personalize - s.fleet - s.generate;
  return s;
}

// Registry figures come from the untraced pass, each from the deltas of the
// phase it describes; self times come from the traced pass as a whole.
std::vector<Metric> per_layer(const Pass& untraced, const Pass& traced,
                              const TraceWindows& tw, std::uint64_t dropped,
                              const Setup& setup) {
  const Samples& s = untraced.samples;
  const PhaseDeltas& pz = untraced.phases.personalize;
  const PhaseDeltas& fl = untraced.phases.fleet;
  const PhaseDeltas& gn = untraced.phases.generate;
  const auto span = [&](const char* n) {
    const auto it = tw.spans().find(n);
    return it == tw.spans().end() ? SpanTotals{} : it->second;
  };
  const double traced_us = traced.wall_s * 1e6;
  std::map<std::string, double> layer_self_ms, layer_main_us;
  for (const auto& [name, t] : tw.spans()) {
    layer_self_ms[span_layer(name)] += t.self_us * 1e-3;
    layer_main_us[span_layer(name)] += t.main_self_us;
  }
  double main_layer_us = 0.0;
  for (const auto& [layer, us] : layer_main_us) {
    if (layer != "bench") main_layer_us += us;
  }
  double lane_busy_us = 0.0;
  for (std::size_t l = 0; l < kFleetThreads; ++l) {
    lane_busy_us += fl.counter("pool.lane" + std::to_string(l) + ".busy_us");
  }
  const llm::MiniLlm::WeightFootprint fp32_fp = setup.gen_fp32->weight_footprint();
  const llm::MiniLlm::WeightFootprint int8_fp = setup.gen_int8->weight_footprint();
  const auto per_token = [](const llm::MiniLlm::WeightFootprint& f) {
    return static_cast<double>(f.matmul_weight_bytes + f.norm_bytes);
  };
  const SpanTotals gemm = span("tensor.gemm");
  const fleet::FleetRunStats& fr = s.fleet;
  const PhaseShares share = phase_shares(untraced);
  const char* P = "registry, personalize phase";
  const char* F = "registry, fleet phase";
  const char* G = "registry, generate phase";
  const char* T = "self time, whole traced pass";
  const char* C = "computed from tensor sizes";
  const char* L = "last fleet run";

  std::vector<Metric> m = {
      {"core.score_us", "us", pz.hist_mean("engine.score.us"), P},
      {"core.score.embed_us", "us", pz.hist_mean("engine.score.embed_us"), P},
      {"core.offer_us", "us", pz.hist_mean("engine.offer.us"), P},
      {"core.admit_ratio", "ratio",
       ratio(pz.counter("engine.admit.free") + pz.counter("engine.admit.replace"),
             pz.counter("engine.seen.sets")), P},
      {"core.synth_accept_ratio", "ratio",
       ratio(pz.counter("synth.accepted.sets"),
             pz.counter("synth.generated.sets")), P},
      {"core.synthesize_ms", "ms", pz.hist_mean("engine.synthesize.us") * 1e-3, P},
      {"core.ckpt_save_ms", "ms", pz.hist_mean("ckpt.save_us") * 1e-3, P},
      {"core.ckpt_bytes", "B", mean(s.ckpt_bytes), "bytes per generation"},
      {"core.quarantined", "count", pz.counter("engine.offer.quarantine"), P},
      {"core.self_ms", "ms", layer_self_ms["core"], T},
      {"llm.train.steps", "count", pz.counter("train.steps.total"), P},
      {"llm.train.tokens", "count", pz.counter("train.tokens.total"), P},
      {"llm.train.forward_us", "us", pz.hist_mean("train.step.forward_us"), P},
      {"llm.train.backward_us", "us", pz.hist_mean("train.step.backward_us"), P},
      {"llm.train.optimizer_us", "us", pz.hist_mean("train.step.optimizer_us"), P},
      {"llm.decode.prime_ms", "ms", mean(s.prime_ms),
       "interactive DecodeSession::prime, untraced"},
      {"llm.decode.step_ms", "ms", mean(s.step_ms),
       "interactive DecodeSession::step, untraced"},
      {"llm.batch.steps", "count", gn.counter("decode.batch.steps.total"), G},
      {"llm.batch.tokens", "count", gn.counter("decode.batch.tokens.total"), G},
      {"llm.batch.occupancy_mean", "sessions",
       gn.hist_mean("decode.batch.occupancy.hist"), G},
      {"llm.batch.prefix_forks", "count",
       gn.counter("decode.batch.prefix_forks.total"), G},
      {"llm.batch.step_us", "us",
       ratio(s.batch_run_s * 1e6, gn.counter("decode.batch.steps.total")),
       "offline run() wall / steps, untraced"},
      {"llm.pretrain_s", "s", setup.pretrain_s, "set-up"},
      {"llm.self_ms", "ms", layer_self_ms["llm"], T},
      {"tensor.gemm.calls", "count", static_cast<double>(gemm.count), T},
      {"tensor.gemm.self_ms", "ms", gemm.self_us * 1e-3, T},
      {"tensor.gemm.share", "ratio", ratio(gemm.main_self_us, traced_us),
       "driving thread's GEMM self time / traced wall"},
      {"tensor.weight_bytes_per_token_fp32", "B", per_token(fp32_fp), C},
      {"tensor.weight_bytes_per_token_int8", "B", per_token(int8_fp), C},
      {"eval.evaluate_ms", "ms",
       untraced.phases.eval.hist_mean("engine.evaluate.us") * 1e-3,
       "registry, the loop's final evaluate_per_set"},
      {"fleet.rouge1_mean", "ratio", mean(s.fleet_rouge),
       "mean final ROUGE-1 of the first fleet run's users"},
      {"fleet.adapter_cache.hit_ratio", "ratio", fr.cache.hit_rate(), L},
      {"fleet.adapter_cache.evictions", "count",
       static_cast<double>(fr.cache.evictions), L},
      {"fleet.eval_jobs_deduped", "count", fl.counter("fleet.eval.jobs.deduped"), F},
      {"fleet.waves", "count", static_cast<double>(fr.waves), L},
      {"fleet.round_ms_p50", "ms", fl.hist_quantile("fleet.round.us", 0.5) * 1e-3, F},
      {"fleet.round_ms_p99", "ms", fr.p99_round_seconds * 1e3, L},
      {"fleet.max_rounds_behind", "count",
       static_cast<double>(fr.max_rounds_behind), L},
      {"fleet.starvation_events", "count",
       static_cast<double>(fr.starvation_events), L},
      {"util.pool.busy_share", "ratio",
       ratio(lane_busy_us,
             static_cast<double>(kFleetThreads) * fl.wall_s() * 1e6), F},
      {"util.pool.regions", "count", fl.counter("pool.regions.total"), F},
      {"util.pool.chunk_us_p50", "us", fl.hist_quantile("pool.chunk_us", 0.5), F},
      {"util.self_ms", "ms", layer_self_ms["util"], T},
      {"io.bytes_raw", "B", pz.counter("io.bytes.raw"), P},
      {"io.bytes_compressed", "B", pz.counter("io.bytes.compressed"), P},
      {"io.flush_us", "us", pz.hist_mean("io.flush_us"), P},
      {"data.generate_s", "s", setup.generate_s, "set-up"},
      {"devicesim.model_bytes", "B",
       static_cast<double>(fp32_fp.total_bytes() + int8_fp.total_bytes() +
                           fr.ledger.base.model_bytes()), C},
      {"devicesim.kv_bytes", "B",
       s.gen_kv_bytes + static_cast<double>(fr.ledger.base.kv_cache_bytes), C},
      {"devicesim.adapter_bytes", "B",
       static_cast<double>(fr.ledger.adapter_bytes()), C},
      {"obs.trace.dropped", "count", static_cast<double>(dropped),
       "obs.trace.dropped.total delta"},
      {"obs.trace_overhead", "ratio", ratio(traced.wall_s, untraced.wall_s),
       "traced wall / untraced wall"},
      {"obs.trace.windows", "count", static_cast<double>(tw.windows()), T},
      {"obs.uncovered_share", "ratio", 1.0 - ratio(main_layer_us, traced_us),
       "driving thread: 1 - layer self time / traced wall"},
      {"obs.trace.off_share", "ratio", ratio(tw.gap_us(), traced_us),
       "recording off between windows / traced wall (part of uncovered)"},
      {"phase.personalize_share", "ratio", share.personalize,
       "untraced pass wall share"},
      {"phase.fleet_share", "ratio", share.fleet, "untraced pass wall share"},
      {"phase.generate_share", "ratio", share.generate,
       "untraced pass wall share"},
  };
  return m;
}

void print_table(const char* title, const std::vector<Metric>& m) {
  std::printf("\n%s\n", title);
  std::printf("  %-36s %14s  %-6s  %s\n", "metric", "value", "unit", "detail");
  for (const Metric& x : m) {
    std::printf("  %-36s %14.6g  %-6s  %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.detail.c_str());
  }
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  bool list = false;
  std::string scratch;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--scratch") {
      o.scratch = value();
    } else if (a == "--list") {
      o.list = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return o;
}

int run(const Options& opt) {
  if (opt.list) {
    for (const Workload& w : workloads()) {
      std::printf("%-12s %s\n", w.name, w.why);
    }
    std::printf("held-out seed: %llu\n",
                static_cast<unsigned long long>(kHeldOutSeed));
    return 0;
  }
  const auto it = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return opt.workload == w.name; });
  if (it == workloads().end()) {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (opt.scratch.empty() || opt.seconds <= 0.0) {
    throw std::invalid_argument("--scratch and a positive --seconds required");
  }
  const Workload& w = *it;
  const double factor = opt.seconds / kReferenceSeconds;
  util::ThreadPool::global().resize(kSingleUserLanes);

  const tensor::KernelBuildInfo kb = tensor::kernel_build_info();
  std::printf("workload %s, seed %llu, seconds %.0f (work x%.2f)\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, factor);
  std::printf("host: %s; simd %s; fp32 %s; int8 %s (block %zu); lanes %zu "
              "(fleet threads %zu); native %d\n",
              cpu_model().c_str(),
              tensor::simd_level_name(tensor::active_simd_level()), kb.variant,
              kb.int8_variant, kb.int8_block, kSingleUserLanes, kFleetThreads,
              kb.native_arch ? 1 : 0);

  // Set-up runs several times into cold private caches; the last one is
  // kept for the measured pass.
  const std::size_t setups = opt.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (std::size_t k = 0; k < setups; ++k) {
    const std::string dir = opt.scratch + "/setup-" + std::to_string(k);
    setup.reset();
    if (k > 0) fs::remove_all(opt.scratch + "/setup-" + std::to_string(k - 1));
    setup = set_up(w, factor, opt.seed, dir);
    setup_s.push_back(setup->seconds);
  }
  const std::string work_dir = opt.scratch + "/work";
  fs::create_directories(work_dir);

  Ops ops;
  obs::registry().reset();
  const Pass pass = run_pass(w, factor, *setup, opt.seed, work_dir, ops);
  std::printf("personalize %zu sets, %zu rounds; fleet %zu users x %zu runs; "
              "generate %zu replies, %zu+%zu batches; pass %.2fs\n",
              setup->pdata.stream.size(), pass.samples.round_s.size(),
              setup->fcfg.fleet.num_devices, pass.samples.users_per_s.size(),
              pass.samples.ttft_ms.size(), pass.samples.tok_s_fp32.size(),
              pass.samples.tok_s_int8.size(), pass.wall_s);
  const PhaseShares share = phase_shares(pass);
  std::printf("share of pass wall: personalize %.3f, fleet %.3f, generate "
              "%.3f, output checks and other %.3f\n",
              share.personalize, share.fleet, share.generate, share.other);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<Metric> unsteady;
    for (Metric& m : end_to_end(pass, setup_s)) {
      (is_unsteady(m.name) ? unsteady : metrics).push_back(std::move(m));
    }
    print_table("end-to-end metrics (untraced)", metrics);
    print_table("end-to-end metrics too unsteady to gate (per-layer table)",
                unsteady);
  } else {
    // Same pass again under windowed tracing. The rouge and output checks
    // run again too, so a traced run that changed results fails.
    const std::string trace_dir = opt.scratch + "/trace";
    fs::create_directories(trace_dir);
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    const std::uint64_t dropped_before =
        obs::registry().counter("obs.trace.dropped.total").value();
    TraceWindows tw(trace_dir);
    tw.start();
    const Pass traced =
        run_pass(w, factor, *setup, opt.seed, work_dir, ops);
    tw.stop();
    const std::uint64_t dropped =
        obs::registry().counter("obs.trace.dropped.total").value() -
        dropped_before;
    ops.check(dropped == 0, "trace: spans dropped");
    ops.check(traced.samples.rouge == pass.samples.rouge &&
                  traced.samples.fleet_rouge == pass.samples.fleet_rouge,
              "trace: ROUGE-1 changed under tracing");
    metrics = per_layer(pass, traced, tw, dropped, *setup);
    for (Metric& m : end_to_end(pass, setup_s)) {
      if (is_unsteady(m.name)) metrics.push_back(std::move(m));
    }
    print_table("per-layer metrics", metrics);
    std::printf("\nspan self time, traced pass (%.2fs wall, %llu windows, "
                "%.1f ms with recording off)\n",
                traced.wall_s, static_cast<unsigned long long>(tw.windows()),
                tw.gap_us() * 1e-3);
    std::printf("  %-36s %-7s %10s %12s %12s\n", "span", "layer", "count",
                "self_ms", "main_ms");
    for (const auto& [name, t] : tw.spans()) {
      std::printf("  %-36s %-7s %10llu %12.2f %12.2f\n", name.c_str(),
                  span_layer(name).c_str(),
                  static_cast<unsigned long long>(t.count), t.self_us * 1e-3,
                  t.main_self_us * 1e-3);
    }
  }

  for (const std::string& f : ops.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("\noperations: %zu attempted, %zu failed\n", ops.attempted,
              ops.failed);
  std::string json = "{\"correct\": ";
  json += ops.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ops.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
