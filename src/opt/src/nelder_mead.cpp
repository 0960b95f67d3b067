#include "cpm/opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/common/rng.hpp"

namespace cpm::opt {

VectorResult nelder_mead(const Objective& f, const Box& box,
                         const std::vector<double>& x0,
                         const NelderMeadOptions& options) {
  box.validate();
  const std::size_t n = box.dim();
  require(x0.size() == n, "nelder_mead: x0 dimension mismatch");

  // Standard coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  // Every vertex and trial point owns a vector of n coordinates, allocated
  // once per run: an accepted trial point swaps buffers with the vertex it
  // replaces, and a shrink overwrites the vertices in place.
  struct Vertex {
    std::vector<double> x;
    double fx = 0.0;
  };
  std::vector<Vertex> simplex(n + 1, Vertex{std::vector<double>(n), 0.0});
  Vertex reflected{std::vector<double>(n), 0.0};
  Vertex expanded = reflected;
  Vertex contracted = reflected;
  std::vector<double> centroid(n);

  // Projects v.x into the box, as Box::project does, and evaluates it.
  auto eval = [&](Vertex& v) {
    for (std::size_t i = 0; i < n; ++i) {
      if (v.x[i] < box.lo[i]) v.x[i] = box.lo[i];
      if (v.x[i] > box.hi[i]) v.x[i] = box.hi[i];
    }
    v.fx = f(v.x);
  };

  simplex[0].x = x0;
  eval(simplex[0]);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& xi = simplex[i + 1].x;
    xi = simplex[0].x;
    const double span = box.hi[i] - box.lo[i];
    double step = options.initial_step * (span > 0.0 ? span : 1.0);
    if (xi[i] + step > box.hi[i]) step = -step;  // step inward at the edge
    xi[i] += step;
    eval(simplex[i + 1]);
  }

  auto order = [&] {
    std::sort(simplex.begin(), simplex.end(),
              [](const Vertex& a, const Vertex& b) { return a.fx < b.fx; });
  };
  order();

  VectorResult result;
  for (result.iterations = 0; result.iterations < options.max_iter;
       ++result.iterations) {
    // Convergence: function spread and simplex diameter.
    const double f_spread = simplex.back().fx - simplex.front().fx;
    double diameter = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double lo = simplex[0].x[i], hi = simplex[0].x[i];
      for (const auto& v : simplex) {
        lo = std::min(lo, v.x[i]);
        hi = std::max(hi, v.x[i]);
      }
      diameter = std::max(diameter, hi - lo);
    }
    if (f_spread <= options.f_tol || diameter <= options.x_tol) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v].x[i];
    for (double& c : centroid) c /= static_cast<double>(n);

    auto along = [&](double t, Vertex& out) {
      for (std::size_t i = 0; i < n; ++i)
        out.x[i] = centroid[i] + t * (centroid[i] - simplex.back().x[i]);
      eval(out);
    };

    along(kReflect, reflected);
    if (reflected.fx < simplex.front().fx) {
      along(kExpand, expanded);
      std::swap(simplex.back(), expanded.fx < reflected.fx ? expanded : reflected);
    } else if (reflected.fx < simplex[n - 1].fx) {
      std::swap(simplex.back(), reflected);
    } else {
      const bool outside = reflected.fx < simplex.back().fx;
      along(outside ? kContract : -kContract, contracted);
      const double bar = outside ? reflected.fx : simplex.back().fx;
      if (contracted.fx < bar) {
        std::swap(simplex.back(), contracted);
      } else {
        // Shrink toward the best vertex.
        for (std::size_t v = 1; v <= n; ++v) {
          for (std::size_t i = 0; i < n; ++i)
            simplex[v].x[i] =
                simplex[0].x[i] + kShrink * (simplex[v].x[i] - simplex[0].x[i]);
          eval(simplex[v]);
        }
      }
    }
    order();
  }

  result.x = simplex.front().x;
  result.value = simplex.front().fx;
  return result;
}

VectorResult multistart_nelder_mead(const Objective& f, const Box& box, int starts,
                                    std::uint64_t seed,
                                    const NelderMeadOptions& options) {
  box.validate();
  require(starts >= 1, "multistart_nelder_mead: starts must be >= 1");
  Rng rng(seed);
  VectorResult best = nelder_mead(f, box, box.center(), options);
  for (int s = 1; s < starts; ++s) {
    std::vector<double> x0(box.dim());
    for (std::size_t i = 0; i < box.dim(); ++i)
      x0[i] = rng.uniform(box.lo[i], box.hi[i]);
    VectorResult r = nelder_mead(f, box, x0, options);
    if (r.value < best.value) best = std::move(r);
  }
  return best;
}

}  // namespace cpm::opt
