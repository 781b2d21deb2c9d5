#include "src/petri/param_model.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"

namespace perfiface {

namespace {

// Relative error with a floor so zero-latency components (possible for a
// component with no enabled transitions) don't divide by zero.
double RelErr(double predicted, double truth) {
  return std::abs(predicted - truth) / std::max(std::abs(truth), 1e-12);
}

}  // namespace

ParamModelStore::ParamModelStore(ParamGate gate, std::size_t max_models, std::size_t num_shards)
    : gate_(gate), max_models_(max_models) {
  shards_.reserve(std::max<std::size_t>(1, num_shards));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ParamModelStore::Lookup(const ComponentQuery& query, std::uint64_t budget,
                             ComponentResult* out) {
  double quiesce_time = 0;
  if (Predict(query.model_key(), query.sorted_attrs(), budget, &quiesce_time, &out->firings) !=
      Outcome::kHit) {
    return false;
  }
  out->quiesce_time = static_cast<Cycles>(std::llround(quiesce_time));
  return true;
}

void ParamModelStore::Observe(const ComponentQuery& query, const ComponentResult& exact) {
  Observe(query.model_key(), query.sorted_attrs(), static_cast<double>(exact.quiesce_time),
          exact.firings);
}

void ParamModelStore::AppendPrometheus(std::string* out) const {
  obs::AppendGauge(out, "perfiface_param_memo_models",
                   "Fitted per-component parametric models currently resident.",
                   static_cast<double>(size()));
  obs::AppendCounter(out, "perfiface_param_memo_hits_total",
                     "Parametric memo predictions served (all gates open, simulation skipped)",
                     hits());
  obs::AppendCounter(
      out, "perfiface_param_memo_refused_hull_total",
      "Parametric memo lookups refused because the query left the observed attribute hull",
      refused_hull());
  obs::AppendCounter(
      out, "perfiface_param_memo_refused_residual_total",
      "Parametric memo lookups refused because the running residual bound was too high",
      refused_residual());
  obs::AppendCounter(out, "perfiface_param_memo_fits_total",
                     "Exact component results folded into the parametric fitters", fits());
  obs::AppendHeader(out, "perfiface_param_memo_rel_err", "histogram",
                    "Prequential |relative error| of the parametric fit vs each new exact "
                    "result.");
  obs::AppendHistogram(out, "perfiface_param_memo_rel_err", "", rel_err_, obs::kErrorUnit);
}

std::size_t ParamModelStore::FeatureCount(std::size_t n) {
  const std::size_t quadratic = 1 + n + n * (n + 1) / 2;
  if (quadratic <= kMaxFeatures) {
    return quadratic;
  }
  const std::size_t linear = 1 + n;
  return linear <= kMaxFeatures ? linear : 0;
}

void ParamModelStore::BuildFeatures(const std::vector<double>& attrs, std::size_t p,
                                    std::vector<double>* phi) {
  const std::size_t n = attrs.size();
  phi->clear();
  phi->reserve(p);
  phi->push_back(1.0);
  for (std::size_t i = 0; i < n; ++i) {
    phi->push_back(attrs[i]);
  }
  if (p > 1 + n) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        phi->push_back(attrs[i] * attrs[j]);
      }
    }
  }
}

void ParamModelStore::Solve(Model* m) {
  if (!m->dirty) {
    return;
  }
  m->dirty = false;
  m->solvable = false;
  const std::size_t p = m->p;
  if (p == 0 || m->count == 0) {
    return;
  }

  // Jacobi equilibration: D A D has unit diagonal, which collapses the
  // raw feature scale spread (attrs vs pairwise products) that would
  // otherwise dominate the normal equations' conditioning.
  std::vector<double> scale(p);
  for (std::size_t i = 0; i < p; ++i) {
    const double d = m->xtx[i * p + i];
    scale[i] = d > 0 ? 1.0 / std::sqrt(d) : 1.0;
  }

  // Cholesky with escalating ridge damping: start exact (lambda = 0) so
  // affine/quadratic nets are recovered unbiased, and only add damping
  // when the factorization fails (rank-deficient or collinear samples).
  std::vector<double> chol(p * p);
  std::vector<double> z(p);
  for (const double lambda : {0.0, 1e-10, 1e-6, 1e-2}) {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        chol[i * p + j] = m->xtx[i * p + j] * scale[i] * scale[j];
      }
      chol[i * p + i] += lambda;
    }
    bool ok = true;
    for (std::size_t i = 0; i < p && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = chol[i * p + j];
        for (std::size_t k = 0; k < j; ++k) {
          sum -= chol[i * p + k] * chol[j * p + k];
        }
        if (i == j) {
          if (!(sum > 1e-14)) {
            ok = false;
            break;
          }
          chol[i * p + i] = std::sqrt(sum);
        } else {
          chol[i * p + j] = sum / chol[j * p + j];
        }
      }
    }
    if (!ok) {
      continue;
    }

    // Solve (L L^T) z = D b, then w = D z; two rounds of iterative
    // refinement recover the precision the normal-equations squaring
    // costs (the affine-recovery property test depends on this).
    auto solve_scaled = [&](const std::vector<double>& rhs, std::vector<double>* x) {
      std::vector<double> y(p);
      for (std::size_t i = 0; i < p; ++i) {
        double sum = rhs[i];
        for (std::size_t k = 0; k < i; ++k) {
          sum -= chol[i * p + k] * y[k];
        }
        y[i] = sum / chol[i * p + i];
      }
      x->assign(p, 0.0);
      for (std::size_t ii = p; ii-- > 0;) {
        double sum = y[ii];
        for (std::size_t k = ii + 1; k < p; ++k) {
          sum -= chol[k * p + ii] * (*x)[k];
        }
        (*x)[ii] = sum / chol[ii * p + ii];
      }
    };

    std::vector<double> b(p);
    for (std::size_t i = 0; i < p; ++i) {
      b[i] = m->xty[i] * scale[i];
    }
    solve_scaled(b, &z);
    std::vector<double> residual(p), correction(p);
    for (int refine = 0; refine < 2; ++refine) {
      for (std::size_t i = 0; i < p; ++i) {
        double sum = b[i];
        for (std::size_t j = 0; j < p; ++j) {
          sum -= m->xtx[i * p + j] * scale[i] * scale[j] * z[j];
        }
        residual[i] = sum;
      }
      solve_scaled(residual, &correction);
      for (std::size_t i = 0; i < p; ++i) {
        z[i] += correction[i];
      }
    }

    m->coef.resize(p);
    bool finite = true;
    for (std::size_t i = 0; i < p; ++i) {
      m->coef[i] = z[i] * scale[i];
      finite = finite && std::isfinite(m->coef[i]);
    }
    if (finite) {
      m->solvable = true;
    }
    return;
  }
}

double ParamModelStore::ResidualBound(const Model& m) {
  const std::size_t filled =
      static_cast<std::size_t>(std::min<std::uint64_t>(m.residual_count, kResidualWindow));
  double bound = 0;
  for (std::size_t i = 0; i < filled; ++i) {
    bound = std::max(bound, m.residuals[i]);
  }
  return bound;
}

ParamModelStore::Shard& ParamModelStore::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void ParamModelStore::Observe(const std::string& key, const std::vector<double>& attrs,
                              double quiesce_time, std::uint64_t firings) {
  if (key.empty()) {
    return;
  }
  Shard& shard = ShardFor(key);
  double prequential = -1;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.models.find(key);
    if (it == shard.models.end()) {
      if (total_models_.load(std::memory_order_relaxed) >= max_models_) {
        return;  // fixed memory: never grow past max_models
      }
      auto model = std::make_unique<Model>();
      model->n = attrs.size();
      model->p = FeatureCount(attrs.size());
      if (model->p == 0) {
        return;  // too many attributes to model — leave the key unfitted
      }
      model->xtx.assign(model->p * model->p, 0.0);
      model->xty.assign(model->p, 0.0);
      model->lo = attrs;
      model->hi = attrs;
      it = shard.models.emplace(key, std::move(model)).first;
      total_models_.fetch_add(1, std::memory_order_relaxed);
    }
    Model& m = *it->second;
    if (m.n != attrs.size()) {
      return;  // schema arity changed under the same hash — don't poison
    }

    std::vector<double> phi;
    BuildFeatures(attrs, m.p, &phi);

    // Prequential validation: score the *current* fit against the new
    // exact result before folding it in. This is the honest residual —
    // every scored point was unseen when the model predicted it — and it
    // is exactly what the serving gate trusts.
    if (m.count >= m.p) {
      Solve(&m);
      if (m.solvable) {
        double predicted = 0;
        for (std::size_t i = 0; i < m.p; ++i) {
          predicted += m.coef[i] * phi[i];
        }
        prequential = RelErr(predicted, quiesce_time);
        m.residuals[m.residual_count % kResidualWindow] = prequential;
        ++m.residual_count;
      }
    }

    for (std::size_t i = 0; i < m.p; ++i) {
      for (std::size_t j = 0; j < m.p; ++j) {
        m.xtx[i * m.p + j] += phi[i] * phi[j];
      }
      m.xty[i] += phi[i] * quiesce_time;
    }
    for (std::size_t i = 0; i < m.n; ++i) {
      m.lo[i] = std::min(m.lo[i], attrs[i]);
      m.hi[i] = std::max(m.hi[i], attrs[i]);
    }
    m.max_firings = std::max(m.max_firings, firings);
    ++m.count;
    m.dirty = true;
  }
  fits_.fetch_add(1, std::memory_order_relaxed);
  if (prequential >= 0) {
    rel_err_.Record(obs::ErrorUnits(prequential));
  }
}

ParamModelStore::Outcome ParamModelStore::Predict(const std::string& key,
                                                  const std::vector<double>& attrs,
                                                  std::uint64_t budget, double* quiesce_time,
                                                  std::uint64_t* firings) {
  if (key.empty()) {
    return Outcome::kNoModel;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.models.find(key);
  if (it == shard.models.end()) {
    return Outcome::kNoModel;
  }
  Model& m = *it->second;
  if (m.n != attrs.size() || m.p == 0) {
    return Outcome::kNoModel;
  }
  if (m.count < gate_.min_samples) {
    return Outcome::kFewSamples;
  }
  for (std::size_t i = 0; i < m.n; ++i) {
    if (attrs[i] < m.lo[i] || attrs[i] > m.hi[i]) {
      refused_hull_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kOutsideHull;
    }
  }
  Solve(&m);
  if (!m.solvable || m.residual_count < kMinResiduals ||
      ResidualBound(m) > gate_.max_rel_err) {
    refused_residual_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kResidual;
  }
  // Mirror the exact table's budget rule: the charge must fit strictly
  // below the remaining budget, else the simulation this hit replaces
  // could have exhausted it.
  if (m.max_firings >= budget) {
    return Outcome::kBudget;
  }

  std::vector<double> phi;
  BuildFeatures(attrs, m.p, &phi);
  double predicted = 0;
  for (std::size_t i = 0; i < m.p; ++i) {
    predicted += m.coef[i] * phi[i];
  }
  *quiesce_time = std::max(0.0, predicted);
  *firings = m.max_firings;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Outcome::kHit;
}

std::size_t ParamModelStore::size() const {
  return total_models_.load(std::memory_order_relaxed);
}

std::string ParamModelStore::SummaryJson() const {
  return StrFormat(
      "{\"models\":%zu,\"fits\":%llu,\"hits\":%llu,\"refused_hull\":%llu,"
      "\"refused_residual\":%llu}",
      size(), static_cast<unsigned long long>(fits()),
      static_cast<unsigned long long>(hits()),
      static_cast<unsigned long long>(refused_hull()),
      static_cast<unsigned long long>(refused_residual()));
}

}  // namespace perfiface
