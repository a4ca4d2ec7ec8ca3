#include "core/preprocess.h"

#include "core/incremental_extractor.h"

namespace headtalk::core {

audio::MultiBuffer preprocess(const audio::MultiBuffer& capture) {
  IncrementalExtractorConfig config;
  config.enable_orientation = false;
  config.enable_liveness = false;
  config.block_ms = kPreprocessBlockMs;
  IncrementalExtractor op;
  op.begin(config, capture.channel_count(), capture.sample_rate());
  op.push(capture);
  return op.finalize_band_passed();
}

audio::Buffer preprocess(const audio::Buffer& capture) {
  audio::MultiBuffer wrapped(std::vector<audio::Buffer>{capture});
  return preprocess(wrapped).channel(0);
}

}  // namespace headtalk::core
