// Umbrella header of ldafp_runtime — the serving layer.
//
// Train with core::, export bits with hw::RomImage, then serve:
//
//   runtime::ModelRegistry registry;
//   auto model = registry.install("bci", trained_classifier);
//   runtime::InferenceEngine engine;
//   runtime::PackedBatch batch;
//   model->scorer.pack_into(batch, features.data(), features.size());
//   std::vector<runtime::ScoreResult> results;
//   if (engine.score(model, batch, results) ==
//       runtime::SubmitStatus::kAccepted)
//     use(results);   // bit-exact datapath labels, one per sample
#pragma once

#include "runtime/batch_scorer.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/stats.h"
