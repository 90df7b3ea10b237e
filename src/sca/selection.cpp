#include "sca/selection.h"

#include <algorithm>
#include <utility>

#include "base/error.h"
#include "crypto/des.h"

namespace secflow {

int hamming_weight(std::uint32_t v) {
  int n = 0;
  for (; v != 0; v &= v - 1) ++n;
  return n;
}

std::uint32_t des_predict_pl(std::uint32_t ciphertext, std::uint32_t guess,
                             int sbox) {
  const std::uint32_t cl = ciphertext & 0xF;
  const std::uint32_t cr = (ciphertext >> 4) & 0x3F;
  return (cl ^ des_sbox(sbox, cr ^ guess)) & 0xF;
}

SelectionFn des_selection(int bit, int sbox) {
  SECFLOW_CHECK(bit >= 0 && bit <= 3,
                "DPA select bit " + std::to_string(bit) +
                    " is outside the PL nibble [0, 3]");
  return [bit, sbox](std::uint32_t ciphertext, std::uint32_t guess) {
    return ((des_predict_pl(ciphertext, guess, sbox) >> bit) & 1) != 0;
  };
}

const char* power_model_name(PowerModel m) {
  return m == PowerModel::kHammingWeight ? "hw" : "hd";
}

std::optional<PowerModel> parse_power_model(const std::string& text) {
  if (text == "hw") return PowerModel::kHammingWeight;
  if (text == "hd") return PowerModel::kHammingDistance;
  return std::nullopt;
}

HypothesisFn des_hypothesis(PowerModel model, int sbox) {
  if (model == PowerModel::kHammingWeight) {
    return [sbox](std::uint32_t ct, std::uint32_t, std::uint32_t guess) {
      return static_cast<double>(hamming_weight(des_predict_pl(ct, guess,
                                                               sbox)));
    };
  }
  return [sbox](std::uint32_t ct, std::uint32_t prev_ct, std::uint32_t guess) {
    return static_cast<double>(hamming_weight(
        des_predict_pl(ct, guess, sbox) ^
        des_predict_pl(prev_ct, guess, sbox)));
  };
}

int GuessRanking::rank_of(int guess) const {
  const double mine = scores[static_cast<std::size_t>(guess)];
  int rank = 1;
  for (std::size_t g = 0; g < scores.size(); ++g) {
    if (static_cast<int>(g) == guess) continue;
    if (scores[g] > mine ||
        (scores[g] == mine && static_cast<int>(g) < guess)) {
      ++rank;
    }
  }
  return rank;
}

bool GuessRanking::disclosed(std::uint32_t correct_key) const {
  if (best_guess != static_cast<int>(correct_key)) return false;
  return best_score > runner_up_score * (1.0 + kDisclosureMargin);
}

GuessRanking rank_guesses(std::vector<double> scores) {
  GuessRanking r;
  r.scores = std::move(scores);
  for (std::size_t g = 0; g < r.scores.size(); ++g) {
    if (r.best_guess < 0 || r.scores[g] > r.best_score) {
      r.best_guess = static_cast<int>(g);
      r.best_score = r.scores[g];
    }
  }
  for (std::size_t g = 0; g < r.scores.size(); ++g) {
    if (static_cast<int>(g) == r.best_guess) continue;
    r.runner_up_score = std::max(r.runner_up_score, r.scores[g]);
  }
  return r;
}

int DisclosureRun::check(int traces, bool disclosed) {
  if (!disclosed) {
    start_ = -1;
    length_ = 0;
  } else if (length_++ == 0) {
    start_ = traces;
  }
  return length_;
}

}  // namespace secflow
