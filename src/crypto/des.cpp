#include "crypto/des.h"

#include "base/error.h"
#include "wddl/qm.h"

namespace secflow {
namespace {

// FIPS 46-3 substitution tables, S1..S8, row-major (4 rows x 16 columns).
constexpr std::uint8_t kSboxes[8][4][16] = {
    {{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
     {0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
     {4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
     {15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13}},
    {{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
     {3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
     {0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
     {13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9}},
    {{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
     {13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
     {13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
     {1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12}},
    {{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
     {13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
     {10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
     {3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14}},
    {{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
     {14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
     {4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
     {11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3}},
    {{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
     {10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
     {9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
     {4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13}},
    {{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
     {13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
     {1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
     {6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12}},
    {{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
     {1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
     {7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
     {2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}}};

}  // namespace

std::uint32_t des_sbox(int box, std::uint32_t in) {
  SECFLOW_CHECK(box >= 1 && box <= 8, "S-box index out of range");
  SECFLOW_CHECK(in < 64, "S-box input out of range");
  const std::uint32_t row = ((in >> 4) & 2) | (in & 1);
  const std::uint32_t col = (in >> 1) & 0xF;
  return kSboxes[box - 1][row][col];
}

AigCircuit make_des_dpa_circuit(const DesDpaOptions& opts) {
  CircuitBuilder cb("des_dpa");
  Aig& g = cb.aig();
  const std::vector<AigLit> pl = cb.input("pl", 4);
  const std::vector<AigLit> pr = cb.input("pr", 6);
  const std::vector<AigLit> k = cb.input("k", 6);

  // Registered plaintext halves (loaded every cycle).
  const std::vector<AigLit> PL = cb.reg("PL", 4);
  const std::vector<AigLit> PR = cb.reg("PR", 6);
  cb.set_next("PL", pl);
  cb.set_next("PR", pr);

  // S-box input: PR ^ K.
  std::vector<AigLit> sin(6);
  for (int i = 0; i < 6; ++i) {
    sin[static_cast<std::size_t>(i)] =
        g.lxor(PR[static_cast<std::size_t>(i)], k[static_cast<std::size_t>(i)]);
  }

  // S-box as minimized two-level logic per output bit (overlapping cubes,
  // like synthesized PLA logic — not a one-hot minterm decoder, whose
  // uniform activity would be unrepresentative of mapped standard cells).
  std::vector<AigLit> sout(4, kAigFalse);
  for (int bit = 0; bit < 4; ++bit) {
    std::uint64_t table = 0;
    for (std::uint32_t v = 0; v < 64; ++v) {
      if ((des_sbox(opts.sbox, v) >> bit) & 1) table |= std::uint64_t{1} << v;
    }
    const std::vector<Cube> sop = minimize_sop(LogicFn(6, table));
    std::vector<AigLit> products;
    for (const Cube& cube : sop) {
      std::vector<AigLit> lits;
      for (int i = 0; i < 6; ++i) {
        if (!((cube.mask >> i) & 1u)) continue;
        const AigLit x = sin[static_cast<std::size_t>(i)];
        lits.push_back(((cube.value >> i) & 1u) ? x : aig_not(x));
      }
      products.push_back(g.land_many(lits));
    }
    sout[static_cast<std::size_t>(bit)] = g.lor_many(products);
  }

  // Registered ciphertext halves, as in Fig 4: CL <= PL ^ S(PR ^ K),
  // CR <= PR.  The observable lags the plaintext registers by one cycle.
  std::vector<AigLit> cl_next(4);
  for (int i = 0; i < 4; ++i) {
    cl_next[static_cast<std::size_t>(i)] = g.lxor(
        PL[static_cast<std::size_t>(i)], sout[static_cast<std::size_t>(i)]);
  }
  const std::vector<AigLit> CL = cb.reg("CL", 4);
  const std::vector<AigLit> CR = cb.reg("CR", 6);
  cb.set_next("CL", cl_next);
  cb.set_next("CR", PR);
  cb.output("cl", CL);
  cb.output("cr", CR);
  return cb.take();
}

std::uint32_t des_dpa_reference(std::uint32_t pl, std::uint32_t pr,
                                std::uint32_t k, int sbox) {
  SECFLOW_CHECK(pl < 16 && pr < 64 && k < 64, "operand out of range");
  const std::uint32_t cl = pl ^ des_sbox(sbox, pr ^ k);
  return cl | (pr << 4);
}

}  // namespace secflow
