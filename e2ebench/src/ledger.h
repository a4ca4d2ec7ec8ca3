// The traced run's in-process ledger: each layer's public functions timed
// from the benchmark's own files, on the same rendered inputs the daemon
// is served. One wake word is replayed through the daemon's per-utterance
// path (frame parse -> ring -> operator push -> finalize -> classifiers ->
// DECISION encode) as nested spans, and once more untraced; the wall-time
// difference is the tracing overhead.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "corpus.h"
#include "reference.h"
#include "stats.h"
#include "tenant/service.h"

namespace e2e {

struct Ledger {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::vector<Span> spans;
};

Ledger measure_layers(const headtalk::core::HeadTalkPipeline& pipeline,
                      const std::vector<Item>& items, const Scene& scene,
                      const std::vector<StreamRef>& refs,
                      headtalk::tenant::TenantService& tenants);

}  // namespace e2e
