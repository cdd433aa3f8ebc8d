/**
 * @file
 * isol_fuzz — differential scenario fuzzer for the chaos plane.
 *
 * Each seed deterministically derives one scenario (knob, device shape,
 * tenant mix including adversaries, knob settings), runs
 * it three times — twice sequentially and once inside the parallel
 * sweep pool — and fails on any byte divergence between the canonical
 * result payloads or on a runtime invariant trip. Every failure prints
 * a one-line repro command carrying the seed.
 *
 * The mutation mode (`--mutate bucket`) flips the deliberate io.max
 * token-bucket corruption in every scenario and expects the invariant
 * checker to catch it (`--expect-violations`), which keeps the checker
 * itself honest: a checker that stops seeing planted bugs fails CI.
 */

#ifndef ISOL_TOOLS_ISOL_FUZZ_FUZZ_HH
#define ISOL_TOOLS_ISOL_FUZZ_FUZZ_HH

#include <cstdint>
#include <string>

namespace isol::fuzz
{

/** Campaign configuration (mirrors the isol_fuzz CLI flags). */
struct FuzzOptions
{
    uint64_t seeds = 64; //!< number of seeds in the campaign
    uint64_t seed_base = 1; //!< first seed (repro: --seeds 1 --seed-base S)
    uint32_t jobs = 8; //!< sweep pool width for the parallel pass
    bool check_invariants = false; //!< run every scenario checked
    bool mutate_bucket = false; //!< plant the io.max bucket corruption
    bool expect_violations = false; //!< pass iff EVERY seed trips a check
};

/** One run of one seed, reduced to comparable facts. */
struct ScenarioOutcome
{
    /** Canonical integer-dominant result payload (byte-comparable). */
    std::string payload;
    /** what() of a non-invariant exception; "" on success. */
    std::string error;
    /** True when a runtime invariant check threw. */
    bool invariant_trip = false;
};

/** Build and run the scenario derived from `seed` once. Never throws. */
ScenarioOutcome runOne(uint64_t seed, const FuzzOptions &opts);

/** Repro command for `seed` under `opts`. */
std::string reproLine(uint64_t seed, const FuzzOptions &opts);

/**
 * Run the full campaign: every seed twice sequentially plus once under
 * the parallel sweep pool, comparing payloads byte-for-byte. Returns a
 * process exit code (0 = pass) and prints a summary plus repro lines
 * for every failing seed.
 */
int runCampaign(const FuzzOptions &opts);

} // namespace isol::fuzz

#endif // ISOL_TOOLS_ISOL_FUZZ_FUZZ_HH
