/// \file checkpoint.hpp
/// \brief Text round-trip for paused playbacks. A checkpoint file carries
/// one or more PlaybackCheckpoints (one per scenario of a paused batch) in
/// a line-oriented format modelled on the scenario files:
///
///     # photherm timeline checkpoint (2 playbacks)
///
///     playback burst_d0p5
///     base_dt = 0.2
///     time = 1.4
///     history = 25.0 25.2 ...
///     state = 25.1 25.3 ...
///     row = 0.2 1 14 25.1 26.0 ...
///     ...
///
/// A `playback <name>` line opens a checkpoint; `key = value` lines fill it
/// (the `history` and `row` keys repeat, in order: the fields before
/// `state`, oldest first, and one row per step). Files written before the
/// history existed carry `cycle` lines (PlaybackCheckpoint::cycle_buffer)
/// instead; they still parse and resume. Every double is written in its
/// shortest round-trip spelling (util::format_shortest), so
/// parse(serialize(x)) reproduces x bit for bit — which is what makes a
/// resumed playback byte-identical to an uninterrupted one. Counters
/// (steps, CG iterations, stats) must be whole non-negative integers.
#pragma once

#include <string>
#include <vector>

#include "timeline/playback.hpp"

namespace photherm::timeline {

/// Serialize checkpoints at full (shortest round-trip) precision.
std::string serialize_checkpoints(const std::vector<PlaybackCheckpoint>& checkpoints);

/// Parse a checkpoint file. Throws SpecError (with the line number) on
/// unknown keys, malformed vectors or missing mandatory fields.
std::vector<PlaybackCheckpoint> parse_checkpoints(const std::string& text);

/// Read + parse a checkpoint file; throws photherm::Error on I/O failure.
std::vector<PlaybackCheckpoint> load_checkpoint_file(const std::string& path);

/// Serialize + write a checkpoint file; throws photherm::Error on I/O
/// failure.
void save_checkpoint_file(const std::string& path,
                          const std::vector<PlaybackCheckpoint>& checkpoints);

}  // namespace photherm::timeline
