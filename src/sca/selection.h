// The attack core shared by every power attack in sca/ and leakage/:
// selection functions, key-guess enumeration, guess ranking and the
// disclosure rule.
//
// DPA (difference of means, sca/dpa.h) partitions traces by a single
// predicted bit; CPA (Pearson correlation, leakage/cpa.h) correlates
// against a multi-bit leakage hypothesis.  Both derive their prediction
// from the same intermediate value — for the paper's Fig 4 circuit, the
// PL register nibble reconstructed from the observed ciphertext under a
// key guess.  That core lives here, once, so the two attacks cannot
// drift: des_selection() is a bit extraction of des_predict_pl(), and the
// CPA hypotheses are Hamming weight/distance of the same value.  Both
// rank their per-guess scores (DPA peak-to-peak, CPA max |rho|) with
// rank_guesses and date disclosure with one DisclosureRun.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace secflow {

/// Selection function: predicted target bit from the ciphertext under a
/// key guess (the DPA partition predicate).
using SelectionFn = std::function<bool(std::uint32_t ciphertext,
                                       std::uint32_t key_guess)>;

/// Leakage hypothesis: predicted relative power of one trace from its
/// observables under a key guess (the CPA correlation target).  `prev_ct`
/// is the ciphertext of the preceding encryption — Hamming-distance
/// models predict register flips, which need both.
using HypothesisFn = std::function<double(std::uint32_t ciphertext,
                                          std::uint32_t prev_ct,
                                          std::uint32_t key_guess)>;

/// The Fig 4 subkey is 6 bits: every attack enumerates these guesses.
inline constexpr int kDesKeyGuesses = 64;

/// Number of set bits.
int hamming_weight(std::uint32_t v);

/// The shared attack core: the PL register nibble reconstructed from the
/// packed ciphertext (cl | cr << 4) under a key guess,
/// PL = CL ^ Sbox(CR ^ K).  Exact for the correct guess.
std::uint32_t des_predict_pl(std::uint32_t ciphertext, std::uint32_t guess,
                             int sbox = 1);

/// DPA selection for the Fig 4 packing: bit `bit` of des_predict_pl.
/// Throws Error for a bit outside the nibble [0, 3].
SelectionFn des_selection(int bit, int sbox = 1);

/// CPA power models over the predicted intermediate.
enum class PowerModel {
  kHammingWeight,    ///< HW(PL): value-dependent leakage
  kHammingDistance,  ///< HW(PL_prev ^ PL): register-flip leakage
};

/// "hw" | "hd" — the leakage-report vocabulary.
const char* power_model_name(PowerModel m);

/// Inverse of power_model_name; nullopt on unknown text.
std::optional<PowerModel> parse_power_model(const std::string& text);

/// The hypothesis for `model` on the Fig 4 circuit, built on
/// des_predict_pl (the same core the DPA selection uses).
HypothesisFn des_hypothesis(PowerModel model, int sbox = 1);

/// Disclosure requires the best guess to beat the runner-up's score by
/// this relative margin.
inline constexpr double kDisclosureMargin = 0.05;

/// Key guesses ranked by a distinguisher score, one per guess.
struct GuessRanking {
  std::vector<double> scores;
  int best_guess = -1;  ///< the first guess with the highest score
  double best_score = 0.0;
  double runner_up_score = 0.0;  ///< best score among the other guesses

  /// 1-based rank of `guess`: 1 + the number of strictly better guesses
  /// (+ equal-scored guesses with a smaller index, so ranks are a
  /// deterministic permutation).
  int rank_of(int guess) const;
  /// Correct key ranked first, beating the runner-up by kDisclosureMargin.
  bool disclosed(std::uint32_t correct_key) const;
};

GuessRanking rank_guesses(std::vector<double> scores);

/// The run of consecutive disclosing checkpoints that measurements to
/// disclosure (MTD) is dated from.  A checkpoint that does not disclose
/// ends the run; the MTD is the trace count where the live run began.
class DisclosureRun {
 public:
  /// Record the verdict at the checkpoint after `traces` traces; returns
  /// the length of the live run (0 when this checkpoint did not disclose).
  int check(int traces, bool disclosed);
  /// Where the live run began; -1 when the last checkpoint did not
  /// disclose (the key is still hidden).
  int mtd() const { return start_; }

 private:
  int start_ = -1;
  int length_ = 0;
};

}  // namespace secflow
