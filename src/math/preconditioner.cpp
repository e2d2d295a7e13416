#include "math/preconditioner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {

namespace {

/// The actionable guard the Krylov stack relies on: a zero diagonal would
/// divide to inf and a negative one silently breaks the SPD
/// preconditioners, and either surfaces much later as a cryptic CG
/// non-convergence. Fail at construction, naming the row.
void require_positive_diagonal(const Vector& diag, const char* who) {
  for (std::size_t i = 0; i < diag.size(); ++i) {
    if (!(diag[i] > 0.0)) {
      std::ostringstream os;
      os << who << ": non-positive diagonal entry " << diag[i] << " at row " << i
         << " (the operator must be SPD; check the assembly feeding this solve)";
      throw Error(os.str());
    }
  }
}

Vector checked_inverse_diagonal(const LinearOperator& a, const char* who) {
  Vector inv_diag = a.diagonal();
  require_positive_diagonal(inv_diag, who);
  for (double& d : inv_diag) {
    d = 1.0 / d;
  }
  return inv_diag;
}

/// One band's progress through a banded ILU(0) apply, alone on its cache
/// line so that publishing it does not invalidate the line another band
/// is polling.
struct alignas(64) PlaneCounter {
  std::atomic<std::size_t> planes{0};

  void publish(std::size_t count) { planes.store(count, std::memory_order_release); }

  /// Block until the band has published `count` planes. A neighbouring
  /// band usually lags by a fraction of a plane, so spin briefly first;
  /// then yield, so a descheduled neighbour gets its CPU back.
  void wait_for(std::size_t count) const {
    constexpr int kSpinsBeforeYield = 1024;
    for (int spins = 0; planes.load(std::memory_order_acquire) < count;) {
      if (spins < kSpinsBeforeYield) {
        ++spins;
      } else {
        std::this_thread::yield();
      }
    }
  }
};

/// The stencil ILU(0) factor's reciprocal pivots, the operator couplings it
/// shares, and one apply's r and z, for the row kernels below.
struct IluRows {
  std::size_t nx, ny, nz;
  const double *inv_pivot, *east, *north, *up;
  const double* r;
  double* z;

  void forward(std::size_t k, std::size_t j0, std::size_t j1) const;
  void backward(std::size_t k, std::size_t j0, std::size_t j1) const;
};

/// Forward-sweep row starting at cell i: w = D^{-1} r minus the lower
/// neighbours scaled by the row's reciprocal pivot, subtracted down,
/// south, west. Row i's down, south and west couplings are up[i - nx*ny],
/// north[i - nx] and east[i - 1]. kDown / kSouth say whether the row has a
/// plane / row below it; without one the term is skipped rather than
/// multiplied by its zero coefficient, and no pointer to it is formed, so
/// the kernel reads nothing outside its own row, the row below and the
/// plane below. Each term is (coupling * reciprocal pivot) * neighbour, in
/// that order, so it rounds exactly as a sweep over row-scaled copies of
/// the couplings would. The west term takes the value just written from a
/// register.
template <bool kDown, bool kSouth>
void forward_row(const IluRows& f, std::size_t i) {
  const std::size_t nx = f.nx;
  const std::size_t sz = nx * f.ny;
  const double* r = f.r + i;
  const double* inv_pivot = f.inv_pivot + i;
  const double* east = f.east + i;
  const double* north = kSouth ? f.north + (i - nx) : nullptr;
  const double* up = kDown ? f.up + (i - sz) : nullptr;
  double* z = f.z + i;
  const double* z_down = kDown ? z - sz : nullptr;
  const double* z_south = kSouth ? z - nx : nullptr;
  double prev = 0.0;
  for (std::size_t x = 0; x < nx; ++x) {
    const double inv = inv_pivot[x];
    double acc = r[x] * inv;
    if constexpr (kDown) {
      acc -= (up[x] * inv) * z_down[x];
    }
    if constexpr (kSouth) {
      acc -= (north[x] * inv) * z_south[x];
    }
    if (x > 0) {
      acc -= (east[x - 1] * inv) * prev;
    }
    z[x] = acc;
    prev = acc;
  }
}

/// Backward-sweep row starting at cell i, the mirror image: x descending,
/// subtracting up, north, east from the forward result in place.
template <bool kUp, bool kNorth>
void backward_row(const IluRows& f, std::size_t i) {
  const std::size_t nx = f.nx;
  const double* inv_pivot = f.inv_pivot + i;
  const double* up = f.up + i;
  const double* north = f.north + i;
  const double* east = f.east + i;
  double* z = f.z + i;
  const double* z_up = kUp ? z + nx * f.ny : nullptr;
  const double* z_north = kNorth ? z + nx : nullptr;
  double next = 0.0;
  for (std::size_t x = nx; x-- > 0;) {
    const double inv = inv_pivot[x];
    double acc = z[x];
    if constexpr (kUp) {
      acc -= (up[x] * inv) * z_up[x];
    }
    if constexpr (kNorth) {
      acc -= (north[x] * inv) * z_north[x];
    }
    if (x + 1 < nx) {
      acc -= (east[x] * inv) * next;
    }
    z[x] = acc;
    next = acc;
  }
}

/// Forward sweep over y-rows [j0, j1) of plane k.
void IluRows::forward(std::size_t k, std::size_t j0, std::size_t j1) const {
  for (std::size_t j = j0; j < j1; ++j) {
    const std::size_t i = (k * ny + j) * nx;
    if (k == 0) {
      j == 0 ? forward_row<false, false>(*this, i) : forward_row<false, true>(*this, i);
    } else {
      j == 0 ? forward_row<true, false>(*this, i) : forward_row<true, true>(*this, i);
    }
  }
}

/// Backward sweep over y-rows [j0, j1) of plane k, top row first.
void IluRows::backward(std::size_t k, std::size_t j0, std::size_t j1) const {
  for (std::size_t j = j1; j-- > j0;) {
    const std::size_t i = (k * ny + j) * nx;
    if (k + 1 == nz) {
      j + 1 == ny ? backward_row<false, false>(*this, i) : backward_row<false, true>(*this, i);
    } else {
      j + 1 == ny ? backward_row<true, false>(*this, i) : backward_row<true, true>(*this, i);
    }
  }
}

/// One apply's sweeps as plane pipelines over `bands` contiguous y-bands:
/// band b owns y-rows [first_row(b), first_row(b + 1)) of every plane.
/// done[b] counts the planes band b has finished, forward sweep then
/// backward, so one zeroing serves both: forward plane k is done at k + 1,
/// backward plane k at 2 nz - k. A band reads a neighbour band's rows only
/// after the acquire load that saw them published. The backward sweep runs
/// band bands - 1 - c as chunk c, so the band that leads is claimed first.
struct BandedSweeps {
  const IluRows& rows;
  std::size_t bands;
  std::array<PlaneCounter, util::kMaxThreads> done{};

  std::size_t first_row(std::size_t b) const { return b * rows.ny / bands; }

  void forward(std::size_t b) {
    for (std::size_t k = 0; k < rows.nz; ++k) {
      if (b > 0) {
        done[b - 1].wait_for(k + 1);
      }
      rows.forward(k, first_row(b), first_row(b + 1));
      done[b].publish(k + 1);
    }
  }

  void backward(std::size_t b) {
    const std::size_t nz = rows.nz;
    for (std::size_t k = nz; k-- > 0;) {
      if (b + 1 < bands) {
        done[b + 1].wait_for(2 * nz - k);
      }
      rows.backward(k, first_row(b), first_row(b + 1));
      done[b].publish(2 * nz - k);
    }
  }
};

/// The CSR matrix behind `a`, for the ILU(0) factor of an operator that is
/// not a stencil; any other operator is an actionable error.
const CsrMatrix& csr_form(const LinearOperator& a) {
  const auto* csr = dynamic_cast<const CsrMatrix*>(&a);
  if (csr == nullptr) {
    throw Error(
        "ilu0 preconditioning needs a StencilOperator7 or explicit CSR sparsity; chebyshev "
        "builds on any operator");
  }
  return *csr;
}

}  // namespace

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a)
    : row_ptr_(a.row_ptr()), col_idx_(a.col_idx()), values_(a.values()), n_(a.rows()) {
  PH_REQUIRE(a.rows() == a.cols(), "ILU(0) requires a square matrix");
  diag_pos_.assign(n_, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] == i) {
        diag_pos_[i] = k;
      }
    }
    PH_REQUIRE(diag_pos_[i] != static_cast<std::size_t>(-1),
               "ILU(0) requires a stored diagonal in every row");
    if (!(values_[diag_pos_[i]] > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) preconditioner: non-positive diagonal entry " << values_[diag_pos_[i]]
         << " at row " << i << " (the operator must be SPD; check the assembly feeding "
         << "this solve)";
      throw Error(os.str());
    }
  }

  // IKJ-variant ILU(0) factorisation restricted to the pattern of A, with
  // relaxed pivots: an update that lands outside row i's pattern is fill
  // ILU(0) drops, and kIlu0Relaxation of it moves onto the pivot instead.
  std::vector<double> work_val(n_, 0.0);
  std::vector<std::int8_t> work_set(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      work_val[col_idx_[k]] = values_[k];
      work_set[col_idx_[k]] = 1;
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) {
        break;  // columns are sorted; only strictly-lower entries eliminate
      }
      const double pivot = values_[diag_pos_[j]];
      const double lij = work_val[j] / pivot;
      work_val[j] = lij;
      for (std::size_t kk = diag_pos_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
        const std::size_t c = col_idx_[kk];
        if (work_set[c]) {
          work_val[c] -= lij * values_[kk];
        } else {
          work_val[i] -= kIlu0Relaxation * (lij * values_[kk]);
        }
      }
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[k] = work_val[col_idx_[k]];
      work_val[col_idx_[k]] = 0.0;
      work_set[col_idx_[k]] = 0;
    }
    if (!(std::abs(values_[diag_pos_[i]]) > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) produced a zero pivot at row " << i;
      throw Error(os.str());
    }
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  PH_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  telemetry::count(telemetry::Counter::kPrecondIlu0Applies);
  // Solve L y = r (unit lower triangular).
  Vector y(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = r[i];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      acc -= values_[k] * y[col_idx_[k]];
    }
    y[i] = acc;
  }
  // Solve U z = y.
  z.resize(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = diag_pos_[ii] + 1; k < row_ptr_[ii + 1]; ++k) {
      acc -= values_[k] * z[col_idx_[k]];
    }
    z[ii] = acc / values_[diag_pos_[ii]];
  }
}

StencilIlu0Preconditioner::StencilIlu0Preconditioner(const StencilOperator7& a)
    : nx_(a.nx()), ny_(a.ny()), nz_(a.nz()), inv_pivot_(a.rows()), couplings_(a.couplings()) {
  const Vector& diag = a.diag();
  require_positive_diagonal(diag, "ILU(0) preconditioner");
  // Pivots first, with the same division and subtraction order as the CSR
  // IKJ factor: each lower neighbour j (down, south, west) contributes its
  // upper entries east, north, up in that order, the one landing on i in
  // full and the other two, fill ILU(0) drops, scaled by kIlu0Relaxation.
  // Row i's coupling to j is j's coupling toward i: up[j], north[j] or
  // east[j]. A missing neighbour's coupling is zero and subtracts 0. The
  // pivots live in inv_pivot_ until the loop below inverts them.
  const Vector& east = *couplings_.east;
  const Vector& north = *couplings_.north;
  const Vector& up = *couplings_.up;
  const std::size_t sy = nx_;
  const std::size_t sz = nx_ * ny_;
  Vector& pivot = inv_pivot_;
  for (std::size_t i = 0; i < pivot.size(); ++i) {
    double d = diag[i];
    if (i >= sz) {
      const std::size_t j = i - sz;
      const double l = up[j] / pivot[j];
      d -= kIlu0Relaxation * (l * east[j]);
      d -= kIlu0Relaxation * (l * north[j]);
      d -= l * up[j];
    }
    if (i >= sy) {
      const std::size_t j = i - sy;
      const double l = north[j] / pivot[j];
      d -= kIlu0Relaxation * (l * east[j]);
      d -= l * north[j];
      d -= kIlu0Relaxation * (l * up[j]);
    }
    if (i >= 1) {
      const std::size_t j = i - 1;
      const double l = east[j] / pivot[j];
      d -= l * east[j];
      d -= kIlu0Relaxation * (l * north[j]);
      d -= kIlu0Relaxation * (l * up[j]);
    }
    if (!(d > 0.0)) {
      std::ostringstream os;
      os << "ILU(0) produced a non-positive pivot " << d << " at row " << i;
      throw Error(os.str());
    }
    pivot[i] = d;
  }
  for (double& p : inv_pivot_) {
    p = 1.0 / p;
  }
}

void StencilIlu0Preconditioner::apply(const Vector& r, Vector& z) const {
  const std::size_t n = inv_pivot_.size();
  PH_REQUIRE(r.size() == n, "ILU(0) apply: size mismatch");
  telemetry::count(telemetry::Counter::kPrecondIlu0Applies);
  z.resize(n);
  const IluRows rows{nx_,
                     ny_,
                     nz_,
                     inv_pivot_.data(),
                     couplings_.east->data(),
                     couplings_.north->data(),
                     couplings_.up->data(),
                     r.data(),
                     z.data()};
  const std::size_t bands =
      n < util::kSerialCutoff ? 1 : std::min(util::region_executors(), ny_);
  if (bands == 1) {
    for (std::size_t k = 0; k < nz_; ++k) {
      rows.forward(k, 0, ny_);
    }
    for (std::size_t k = nz_; k-- > 0;) {
      rows.backward(k, 0, ny_);
    }
    return;
  }
  // One chunk per band, and at most one band per executor of the budget,
  // so each region runs on `bands` executors. Each chunk waits only on the
  // chunk claimed just before it, which the pool's index-ordered claiming
  // guarantees progress for.
  BandedSweeps sweeps{rows, bands};
  util::parallel_for(bands, 1, [&sweeps](std::size_t b, std::size_t) { sweeps.forward(b); });
  util::parallel_for(bands, 1, [&sweeps](std::size_t c, std::size_t) {
    sweeps.backward(sweeps.bands - 1 - c);
  });
}

ChebyshevPreconditioner::ChebyshevPreconditioner(const LinearOperator& a,
                                                 const ChebyshevSettings& settings)
    : a_(a.clone()),
      inv_diag_(checked_inverse_diagonal(a, "Chebyshev preconditioner")),
      degree_(settings.degree) {
  PH_REQUIRE(settings.degree >= 1, "Chebyshev degree must be at least 1");
  PH_REQUIRE(settings.eig_ratio > 1.0, "Chebyshev eig_ratio must exceed 1");
  lambda_max_ = a.scaled_row_sum_bound(inv_diag_);
  PH_REQUIRE(lambda_max_ > 0.0 && std::isfinite(lambda_max_),
             "Chebyshev preconditioner: operator has no finite positive spectrum bound");
  // Jacobi scaling pins every diagonal of D^{-1} A at 1, so the Gershgorin
  // discs give a lower spectrum bound for free: min_i (1 - sum|offdiag|/d_i)
  // = 2 - lambda_max. For the bare conduction operator this is ~0 (useless,
  // fall back to lambda_max / eig_ratio), but for the diagonally shifted
  // transient stepping operator A + C/dt it is tight — the interval then
  // hugs the actual spectrum instead of chasing modes that do not exist,
  // which is what makes the cached preconditioner cheap per warm step.
  // Keep a sliver of interval so it never collapses (a diagonal operator
  // has lambda_max == 1 and the two bounds would otherwise meet).
  lambda_min_ = std::max(lambda_max_ / settings.eig_ratio, 2.0 - lambda_max_);
  lambda_min_ = std::min(lambda_min_, 0.95 * lambda_max_);
}

void ChebyshevPreconditioner::apply(const Vector& r, Vector& z) const {
  const std::size_t n = inv_diag_.size();
  PH_REQUIRE(r.size() == n, "Chebyshev apply: size mismatch");
  telemetry::count(telemetry::Counter::kPrecondChebyshevApplies);

  // Chebyshev iteration on (D^{-1} A) z = D^{-1} r with zero initial
  // guess (Saad, Iterative Methods, Alg. 12.1), tracking the unscaled
  // residual res = r - A z so each step costs exactly one SpMV.
  const double theta = 0.5 * (lambda_max_ + lambda_min_);
  const double delta = 0.5 * (lambda_max_ - lambda_min_);
  const double sigma = theta / delta;

  // First step: z = d = D^{-1} r / theta.
  Vector d(n);
  auto first = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      d[i] = inv_diag_[i] * r[i] / theta;
    }
  };
  util::kernel_for(n, first);
  z = d;
  if (degree_ == 1) {
    return;
  }

  Vector res = r;
  Vector ad(n);
  double rho = 1.0 / sigma;
  for (std::size_t k = 1; k < degree_; ++k) {
    // res -= A d (z just moved by d).
    a_->apply(d, ad);
    axpy(-1.0, ad, res);
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c_d = rho_next * rho;
    const double c_res = 2.0 * rho_next / delta;
    auto update = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        d[i] = c_d * d[i] + c_res * inv_diag_[i] * res[i];
        z[i] += d[i];
      }
    };
    util::kernel_for(n, update);
    rho = rho_next;
  }
}

const char* to_string(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::kIlu0:
      return "ilu0";
    case PreconditionerKind::kChebyshev:
      return "chebyshev";
  }
  return "unknown";
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const LinearOperator& a,
                                                    const ChebyshevSettings& chebyshev) {
  telemetry::Span span("precond.build", to_string(kind));
  switch (kind) {
    case PreconditionerKind::kChebyshev:
      telemetry::count(telemetry::Counter::kPrecondChebyshevBuilds);
      return std::make_unique<ChebyshevPreconditioner>(a, chebyshev);
    case PreconditionerKind::kIlu0:
      telemetry::count(telemetry::Counter::kPrecondIlu0Builds);
      if (const auto* stencil = dynamic_cast<const StencilOperator7*>(&a)) {
        return std::make_unique<StencilIlu0Preconditioner>(*stencil);
      }
      return std::make_unique<Ilu0Preconditioner>(csr_form(a));
  }
  throw Error("unknown preconditioner kind");
}

}  // namespace photherm::math
