#include "ledger.h"

#include "core/incremental_extractor.h"
#include "core/scoring_workspace.h"
#include "dsp/fft_plan.h"
#include "proc.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "stream/streaming_detector.h"

namespace e2e {

using namespace headtalk;

namespace {

/// Records spans as [start, end) on the steady clock under one request.
/// A disabled log reads no clock and records nothing, so timing the same
/// work with and without it gives the tracing overhead.
class SpanLog {
 public:
  SpanLog(std::vector<Span>& spans, bool enabled) : spans_(spans), enabled_(enabled) {}
  int open(const char* name, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int span) {
    if (!enabled_) return 0.0;
    auto& s = spans_[static_cast<std::size_t>(span)];
    s.end = now_s();
    return s.end - s.start;
  }

 private:
  std::vector<Span>& spans_;
  bool enabled_;
};

/// Median per-call microseconds of `fn` timed in batches of `calls`.
template <typename Fn>
double batched_us(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back((now_s() - t0) * 1e6 / calls);
  }
  return median(per_call);
}

/// Per-stage seconds of one replayed utterance (0 when untraced).
struct UtteranceTimes {
  double encode = 0.0, parse = 0.0, ring = 0.0, push = 0.0, fin_live = 0.0,
         live_score = 0.0, fin_orient = 0.0, orient_score = 0.0;
};

/// The daemon's per-connection state, kept across utterances.
struct Replayer {
  const core::HeadTalkPipeline& pipeline;
  core::IncrementalExtractor op;
  serve::FrameReader reader;
  serve::SampleRing ring;

  explicit Replayer(const core::HeadTalkPipeline& p) : pipeline(p) {
    ring.reset(kChannels, serve::SessionLimits{}.max_utterance_frames, kSampleRate);
  }

  /// One wake word through the daemon's per-utterance path: AUDIO_CHUNK
  /// encode (client side), frame parse, ring append and snapshot, the
  /// operator and the classifier ladder stage by stage, DECISION encode.
  /// `chunks` is the client's interleaving, prepared outside the timing.
  UtteranceTimes replay(const Item& item, const std::vector<std::vector<float>>& chunks,
                        SpanLog& log, std::uint64_t request) {
    UtteranceTimes t;
    const int root = log.open("ledger.utterance", -1, request);

    int s = log.open("serve.encode", root, request);
    for (const auto& chunk : chunks) (void)serve::encode_audio_chunk(chunk, kChannels);
    t.encode += log.close(s);

    const std::size_t step = 64 * 1024;  // socket-sized reads
    for (std::size_t at = 0; at < item.chunks.size(); at += step) {
      s = log.open("serve.parse", root, request);
      reader.feed(item.chunks.data() + at, std::min(step, item.chunks.size() - at));
      std::vector<serve::AudioChunk> parsed;
      while (auto frame = reader.next()) {
        parsed.push_back(serve::parse_audio_chunk(*frame, kChannels));
      }
      t.parse += log.close(s);
      s = log.open("serve.ring", root, request);
      for (const auto& chunk : parsed) ring.append(chunk.interleaved);
      t.ring += log.close(s);
    }
    s = log.open("serve.ring", root, request);
    const audio::MultiBuffer capture = ring.snapshot();
    ring.clear();
    t.ring += log.close(s);

    s = log.open("core.op_push", root, request);
    op.begin(pipeline.incremental_config(), capture.channel_count(), capture.sample_rate());
    op.push(capture);
    t.push = log.close(s);
    s = log.open("core.op_finalize_liveness", root, request);
    const auto live_features = op.finalize_liveness();
    t.fin_live = log.close(s);
    s = log.open("core.liveness_score", root, request);
    serve::DecisionFrame decision;
    decision.liveness_score = pipeline.liveness().score(live_features);
    t.live_score = log.close(s);
    s = log.open("core.op_finalize_orientation", root, request);
    const auto orient_features = op.finalize_orientation();
    t.fin_orient = log.close(s);
    s = log.open("core.orientation_score", root, request);
    decision.orientation_score = pipeline.orientation().score(orient_features);
    decision.facing = pipeline.orientation().is_facing(orient_features);
    t.orient_score = log.close(s);
    s = log.open("serve.encode", root, request);
    (void)serve::encode_decision(decision);
    t.encode += log.close(s);
    log.close(root);
    return t;
  }
};

}  // namespace

Ledger measure_layers(const core::HeadTalkPipeline& pipeline,
                      const std::vector<Item>& items, const Scene& scene,
                      const std::vector<StreamRef>& refs,
                      tenant::TenantService& tenants) {
  Ledger ledger;
  auto& m = ledger.metrics;
  const auto mode = core::VaMode::kHeadTalk;

  // ---- one wake word through the daemon's per-utterance path ------------
  // Every utterance is replayed twice per round, traced and untraced, in
  // alternating order. The tracing overhead is the wall-time difference,
  // its median taken per order and the two averaged, so what the first
  // replay warms for the second cancels out.
  std::vector<double> parse_us, ring_us, encode_us, push_ms, push_block_us, blocks,
      fin_live_us, fin_orient_us, live_score_us, orient_score_us;
  std::vector<double> overhead_us[2];  // [traced replay ran first]
  Replayer replayer(pipeline);
  std::vector<Span> discarded;
  SpanLog untraced(discarded, false);
  constexpr int kRounds = 3;  // the first round warms caches and is dropped
  std::uint64_t request = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const Item& item : items) {
      const bool keep = round > 0;
      std::vector<std::vector<float>> chunks;
      for (std::size_t at = 0; at < item.capture.frames(); at += kChunkFrames) {
        chunks.push_back(interleave(item.capture, at,
                                    std::min(kChunkFrames, item.capture.frames() - at)));
      }
      std::vector<Span> spans;
      SpanLog traced(spans, true);
      double traced_s = 0.0, untraced_s = 0.0;
      UtteranceTimes t;
      const bool traced_first = request % 2 == 0;
      for (int order = 0; order < 2; ++order) {
        const bool trace_now = (order == 0) == traced_first;
        const double t0 = now_s();
        if (trace_now) {
          t = replayer.replay(item, chunks, traced, request + 1);
        } else {
          (void)replayer.replay(item, chunks, untraced, request + 1);
        }
        (trace_now ? traced_s : untraced_s) = now_s() - t0;
      }
      ++request;
      if (!keep) continue;
      const int offset = static_cast<int>(ledger.spans.size());
      for (auto span : spans) {
        if (span.parent >= 0) span.parent += offset;
        ledger.spans.push_back(span);
      }
      overhead_us[traced_first ? 1 : 0].push_back((traced_s - untraced_s) * 1e6);
      encode_us.push_back(t.encode * 1e6);
      parse_us.push_back(t.parse * 1e6);
      ring_us.push_back(t.ring * 1e6);
      push_ms.push_back(t.push * 1e3);
      const double n_blocks = static_cast<double>(replayer.op.blocks_accumulated());
      blocks.push_back(n_blocks);
      push_block_us.push_back(t.push * 1e6 / std::max(1.0, n_blocks));
      fin_live_us.push_back(t.fin_live * 1e6);
      fin_orient_us.push_back(t.fin_orient * 1e6);
      live_score_us.push_back(t.live_score * 1e6);
      orient_score_us.push_back(t.orient_score * 1e6);
    }
  }
  m["serve.encode_us_per_utt"] = {median(encode_us), "us"};
  m["serve.parse_us_per_utt"] = {median(parse_us), "us"};
  m["serve.ring_us_per_utt"] = {median(ring_us), "us"};
  m["core.op_push_ms_per_utt"] = {median(push_ms), "ms"};
  m["core.op_push_us_per_block"] = {median(push_block_us), "us"};
  m["core.op_blocks_per_utt"] = {median(blocks), "count"};
  m["core.op_finalize_liveness_us"] = {median(fin_live_us), "us"};
  m["core.op_finalize_orientation_us"] = {median(fin_orient_us), "us"};
  m["core.liveness_score_us"] = {median(live_score_us), "us"};
  m["core.orientation_score_us"] = {median(orient_score_us), "us"};
  m["trace.overhead_us_per_utt"] = {
      0.5 * (median(overhead_us[0]) + median(overhead_us[1])), "us"};

  // ---- score_capture as the daemon calls it, warm and cold --------------
  core::ScoringWorkspace workspace;
  std::vector<double> warm_ms, cold_ms;
  for (int round = 0; round < 2; ++round) {
    for (const Item& item : items) {
      const double t0 = now_s();
      (void)pipeline.score_capture(item.capture, mode, false, false, &workspace);
      if (round > 0) warm_ms.push_back((now_s() - t0) * 1e3);
    }
  }
  // Cold: no workspace and an empty FFT plan cache, as the first utterance
  // after start-up sees it.
  for (std::size_t i = 0; i < items.size(); i += 4) {
    dsp::FftPlanCache::global().clear();
    const double t0 = now_s();
    (void)pipeline.score_capture(items[i].capture, mode, false, false);
    cold_ms.push_back((now_s() - t0) * 1e3);
  }
  m["core.score_capture_warm_ms"] = {median(warm_ms), "ms"};
  m["core.score_capture_cold_ms"] = {median(cold_ms), "ms"};

  // ---- streaming: detector push on silence vs speech, segment finalize --
  {
    const serve::SessionLimits limits;
    stream::StreamingDetectorConfig config = limits.stream;
    config.mode = mode;
    stream::StreamingDetector detector(pipeline, kChannels, kSampleRate, config);
    detector.set_workspace(&workspace);
    double silence_s = 0.0, silence_audio = 0.0, speech_s = 0.0, speech_audio = 0.0;
    for (std::size_t k = 0; k < scene.wire.size(); ++k) {
      const auto chunk = scene_chunk(scene, k);
      const double audio = static_cast<double>(chunk.size() / kChannels) / kSampleRate;
      const double t0 = now_s();
      const auto events = detector.push_interleaved(chunk);
      const double took = now_s() - t0;
      if (!events.empty()) continue;  // closing chunks carry a finalize
      (scene.speech[k] ? speech_s : silence_s) += took;
      (scene.speech[k] ? speech_audio : silence_audio) += audio;
    }
    m["stream.push_us_per_audio_s_silence"] = {
        silence_s * 1e6 / std::max(1e-9, silence_audio), "us/s"};
    m["stream.push_us_per_audio_s_speech"] = {
        speech_s * 1e6 / std::max(1e-9, speech_audio), "us/s"};

    std::vector<double> finalize_us;
    const auto& events = refs.front().events;
    for (const auto& e : events) {
      const auto frame_at = [](double seconds) {
        return static_cast<std::uint64_t>(std::llround(seconds * kSampleRate));
      };
      const auto segment = segment_capture(scene, frame_at(e.expect.begin_seconds),
                                           frame_at(e.expect.end_seconds));
      auto& op = replayer.op;
      op.begin(pipeline.incremental_config(), kChannels, kSampleRate);
      op.push(segment);
      const double t0 = now_s();
      (void)pipeline.finalize_segment(op, mode, false, false);
      finalize_us.push_back((now_s() - t0) * 1e6);
    }
    m["stream.finalize_us"] = {median(finalize_us), "us"};

    double segments = 0.0, discarded = 0.0, truth = 0.0, found = 0.0;
    for (const auto& ref : refs) {
      segments += static_cast<double>(ref.segments);
      discarded += static_cast<double>(ref.discarded);
      truth += static_cast<double>(ref.truth_utterances);
      found += static_cast<double>(ref.truth_found);
    }
    m["stream.discarded_share"] = {discarded / std::max(1.0, segments + discarded),
                                   "ratio"};
    m["stream.segment_recall"] = {found / std::max(1.0, truth), "ratio"};
  }

  // ---- tenant reads and the reload write beside them --------------------
  {
    core::FeatureCapture features;
    const auto result =
        pipeline.score_capture(items.front().capture, mode, false, false, &workspace,
                               &features);
    const std::string id = kTenants[0].id;
    m["tenant.authenticate_us"] = {
        batched_us(9, 2000, [&] { (void)tenants.authenticate(id); }), "us"};
    m["tenant.decide_us"] = {
        batched_us(9, 2000, [&] { (void)tenants.decide(id, result, features); }), "us"};
    std::vector<double> reload_ms;
    for (int i = 0; i < 7; ++i) {
      const double t0 = now_s();
      (void)tenants.reload();
      reload_ms.push_back((now_s() - t0) * 1e3);
    }
    m["tenant.reload_ms"] = {median(reload_ms), "ms"};
  }
  return ledger;
}

}  // namespace e2e
