// The small synthetic decode replay behind `trace_inspect --decode` and
// `disc_explain --decode` (when no dump exists yet): a seeded decode
// stream through the continuous-batching scheduler on the compiled GPT
// step-batch model.
#ifndef DISC_EXAMPLES_DECODE_DEMO_H_
#define DISC_EXAMPLES_DECODE_DEMO_H_

#include "baselines/dynamic_engine.h"
#include "decode/decode_replay.h"
#include "decode/decode_scheduler.h"
#include "models/models.h"

namespace disc {

inline Result<DecodeStats> RunDecodeDemoReplay() {
  ModelConfig config;
  config.hidden = 32;
  config.trace_length = 4;
  Model model = BuildGptStepBatch(config);
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  Status prepared = engine.Prepare(*model.graph, model.input_dim_labels);
  if (!prepared.ok()) {
    return Status::Internal("decode engine setup failed: " +
                            prepared.ToString());
  }
  DecodeOptions options;
  options.max_batch = 8;
  options.kv.capacity_blocks = 96;
  options.kv.block_tokens = 16;
  options.kv.bytes_per_token = 2 * config.hidden * sizeof(float);
  return SimulateDecode(&engine, GptStepBatchShapeFn(config.hidden),
                        SyntheticDecodeStream(48, 40.0, 11), options,
                        DeviceSpec::A10());
}

}  // namespace disc

#endif  // DISC_EXAMPLES_DECODE_DEMO_H_
