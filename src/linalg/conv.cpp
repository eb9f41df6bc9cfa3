#include "linalg/conv.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/audit.hpp"
#include "common/scheduler.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/microkernel_s8.hpp"

namespace rt {

namespace {

// dcol tile height for the fused dgrad scatter: one (kMcScatter x kNc) tile
// (64 KiB) is computed to completion, scattered into dX while cache-hot,
// then reused — the full dcol buffer never exists.
constexpr std::int64_t kMcScatter = 64;

/// Decode table for flattened weight columns: column index r of the
/// (out_ch, C*k*k) weight matrix touches input channel c[r] at kernel
/// offset (ki[r], kj[r]). Rebuilt only when the geometry changes.
struct DecodeTable {
  std::int64_t c_in = -1, kernel = -1;
  std::vector<std::int32_t> c, ki, kj;
};

const DecodeTable& decode_table(std::int64_t c_in, std::int64_t kernel) {
  thread_local DecodeTable t;
  if (t.c_in != c_in || t.kernel != kernel) {
    const std::int64_t ckk = c_in * kernel * kernel;
    t.c.resize(static_cast<std::size_t>(ckk));
    t.ki.resize(static_cast<std::size_t>(ckk));
    t.kj.resize(static_cast<std::size_t>(ckk));
    for (std::int64_t r = 0; r < ckk; ++r) {
      const std::int64_t k2 = kernel * kernel;
      t.c[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r / k2);
      t.ki[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>((r % k2) / kernel);
      t.kj[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r % kernel);
    }
    t.c_in = c_in;
    t.kernel = kernel;
  }
  return t;
}

/// Byte cap of a padded-plane staging copy, shared by the fp32 and int8
/// forwards. A padded conv first copies its input planes into
/// (c_in, h+2p, w+2p) planes whose border holds the element type's zero
/// encoding (0.0f, or 128 in offset-u8), after which every B gather is an
/// unguarded copy: the border clipping leaves the per-(tap, pixel) inner
/// loop and is paid once per plane instead (1x the input volume against
/// k*k gathered copies of it). 256 KiB covers every plane of the
/// small-image models the engine serves, and int8 batches of them;
/// larger planes and batches fall back to the clipped gather.
inline constexpr std::int64_t kPadPlaneCap = 256 * 1024;

/// The calling thread's staging buffer, shared by both element types: float
/// storage, which the int8 forward fills through byte (character) access.
alignas(64) thread_local float pad_staging_tl[kPadPlaneCap / sizeof(float)];

/// Stages padded copies of n planes (plane i at x + i * x_stride) back to
/// back, c_in * (h+2p) * (w+2p) elements each, with `zero` in the border.
/// They go into `frame` when non-null — a kernel that spawns tiles must
/// stage into a buffer its own frame owns (see forward_packed) — else into
/// pad_staging_tl. Returns the staged planes, or nullptr when the layer has
/// no padding or the planes overflow kPadPlaneCap: such layers keep the
/// clipped gather.
template <typename T>
const T* stage_padded(const T* x, std::int64_t n, std::int64_t x_stride,
                      std::int64_t c_in, std::int64_t h, std::int64_t w,
                      std::int64_t pad, T zero,
                      std::type_identity_t<std::vector<T>>* frame) {
  const std::int64_t ph = h + 2 * pad, pw = w + 2 * pad;
  const std::int64_t count = n * c_in * ph * pw;
  const auto bytes = count * static_cast<std::int64_t>(sizeof(T));
  if (pad <= 0 || bytes > kPadPlaneCap) return nullptr;
  T* dst = reinterpret_cast<T*>(pad_staging_tl);
  if (frame != nullptr) {
    // Dynamic, training only: the parallel-tile forward stages per call,
    // at most kPadPlaneCap bytes.
    frame->resize(static_cast<std::size_t>(count));
    dst = frame->data();
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < c_in; ++c) {
      const T* src = x + i * x_stride + c * h * w;
      T* plane = dst + (i * c_in + c) * ph * pw;
      std::fill_n(plane, pad * pw, zero);
      for (std::int64_t ii = 0; ii < h; ++ii) {
        T* row = plane + (pad + ii) * pw;
        std::fill_n(row, pad, zero);
        std::memcpy(row + pad, src + ii * w,
                    static_cast<std::size_t>(w) * sizeof(T));
        std::fill_n(row + pad + w, pad, zero);
      }
      std::fill_n(plane + (pad + h) * pw, pad * pw, zero);
    }
  }
  return dst;
}

/// Gathers `count` consecutive virtual-im2col values of one column row
/// (fixed channel plane + kernel offset) starting at flat output pixel
/// `pixel0`. Decomposes the pixel range into output-image rows; interior
/// runs collapse to a memcpy (stride 1) or a strided copy, border runs fall
/// back to per-element guards.
void gather_col_row(const float* xplane, std::int64_t h, std::int64_t w,
                    std::int64_t stride, std::int64_t pad, std::int64_t ki,
                    std::int64_t kj, std::int64_t ow, std::int64_t pixel0,
                    std::int64_t count, float* dst) {
  std::int64_t t = 0;
  while (t < count) {
    const std::int64_t pixel = pixel0 + t;
    const std::int64_t oi = pixel / ow;
    const std::int64_t oj = pixel % ow;
    const std::int64_t run = std::min(count - t, ow - oj);
    const std::int64_t ii = oi * stride - pad + ki;
    if (ii < 0 || ii >= h) {
      for (std::int64_t r = 0; r < run; ++r) dst[t + r] = 0.0f;
      t += run;
      continue;
    }
    const float* xrow = xplane + ii * w;
    const std::int64_t jj = oj * stride - pad + kj;
    if (jj >= 0 && jj + (run - 1) * stride < w) {
      if (stride == 1) {
        std::memcpy(dst + t, xrow + jj,
                    static_cast<std::size_t>(run) * sizeof(float));
      } else {
        for (std::int64_t r = 0; r < run; ++r) {
          dst[t + r] = xrow[jj + r * stride];
        }
      }
    } else {
      for (std::int64_t r = 0; r < run; ++r) {
        const std::int64_t j2 = jj + r * stride;
        dst[t + r] = (j2 >= 0 && j2 < w) ? xrow[j2] : 0.0f;
      }
    }
    t += run;
  }
}

/// Packs rows [kc, kc+kb) x pixels [jc, jc+nb) of the virtual im2col matrix
/// into kNr-column slivers at `bp` — the forward path's B operand, gathered
/// straight from the input plane in packed layout.
void pack_col_panel(const float* x, std::int64_t h, std::int64_t w,
                    const ConvGeometry& g, const DecodeTable& dec,
                    std::int64_t kc, std::int64_t kb, std::int64_t jc,
                    std::int64_t nb, std::int64_t ow, float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = std::min(kNr, nb - jr);
    float* sliver = bp + jr * kb;
    const std::int64_t pixel0 = jc + jr;
    for (std::int64_t p = 0; p < kb; ++p) {
      const auto row = static_cast<std::size_t>(kc + p);
      const float* xplane = x + static_cast<std::int64_t>(dec.c[row]) * h * w;
      float* dst = sliver + p * kNr;
      gather_col_row(xplane, h, w, g.stride, g.padding, dec.ki[row],
                     dec.kj[row], ow, pixel0, n_eff, dst);
      for (std::int64_t j = n_eff; j < kNr; ++j) dst[j] = 0.0f;
    }
  }
}

/// pack_col_panel over a padded staging copy of the input (planes ph x pw,
/// see stage_padded): the border already holds zeros, so no tap needs a
/// guard. Each sliver's kNr source offsets are decoded once, each k row's
/// tap base once per panel; a k row is then one kNr-float copy when the
/// sliver's pixels are contiguous (stride 1, one output row) and kNr
/// unguarded loads otherwise.
void pack_col_panel_padded(const float* xp, std::int64_t ph, std::int64_t pw,
                           const ConvGeometry& g, const DecodeTable& dec,
                           std::int64_t kc, std::int64_t kb, std::int64_t jc,
                           std::int64_t nb, std::int64_t ow, float* bp) {
  // Offset of column row kc+p's tap for output pixel (0, 0).
  std::int64_t tap[kKc] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const auto row = static_cast<std::size_t>(kc + p);
    tap[p] = static_cast<std::int64_t>(dec.c[row]) * ph * pw +
             static_cast<std::int64_t>(dec.ki[row]) * pw + dec.kj[row];
  }
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = std::min(kNr, nb - jr);
    float* sliver = bp + jr * kb;
    // Offsets strictly increase with the pixel index, so a span of kNr - 1
    // over kNr full lanes means they are consecutive.
    std::int64_t off[kNr] = {};
    std::int64_t oi = (jc + jr) / ow;
    std::int64_t oj = (jc + jr) - oi * ow;
    for (std::int64_t j = 0; j < n_eff; ++j) {
      off[j] = (oi * pw + oj) * g.stride;
      if (++oj == ow) {
        oj = 0;
        ++oi;
      }
    }
    if (n_eff == kNr && off[kNr - 1] - off[0] == kNr - 1) {
      for (std::int64_t p = 0; p < kb; ++p) {
        std::memcpy(sliver + p * kNr, xp + tap[p] + off[0],
                    kNr * sizeof(float));
      }
    } else {
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* src = xp + tap[p];
        float* dst = sliver + p * kNr;
        for (std::int64_t j = 0; j < n_eff; ++j) dst[j] = src[off[j]];
        for (std::int64_t j = n_eff; j < kNr; ++j) dst[j] = 0.0f;
      }
    }
  }
}

/// Packs pixels [pc, pc+kb) x columns [jc, jc+nb) of the TRANSPOSED virtual
/// im2col matrix (the wgrad path's B operand). The kNr column decodes are
/// hoisted per sliver; the pixel walk is incremental, so the inner body is
/// kNr guarded loads.
void pack_colt_panel(const float* x, std::int64_t h, std::int64_t w,
                     const ConvGeometry& g, const DecodeTable& dec,
                     std::int64_t pc, std::int64_t kb, std::int64_t jc,
                     std::int64_t nb, std::int64_t ow, float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = std::min(kNr, nb - jr);
    float* sliver = bp + jr * kb;
    std::int64_t ki[kNr], kj[kNr];
    const float* xpl[kNr];
    for (std::int64_t j = 0; j < n_eff; ++j) {
      const auto row = static_cast<std::size_t>(jc + jr + j);
      ki[j] = dec.ki[row];
      kj[j] = dec.kj[row];
      xpl[j] = x + static_cast<std::int64_t>(dec.c[row]) * h * w;
    }
    std::int64_t oi = pc / ow;
    std::int64_t oj = pc % ow;
    for (std::int64_t p = 0; p < kb; ++p) {
      const std::int64_t ib = oi * g.stride - g.padding;
      const std::int64_t jb = oj * g.stride - g.padding;
      float* dst = sliver + p * kNr;
      for (std::int64_t j = 0; j < n_eff; ++j) {
        const std::int64_t ii = ib + ki[j];
        const std::int64_t jj = jb + kj[j];
        dst[j] = (ii >= 0 && ii < h && jj >= 0 && jj < w)
                     ? xpl[j][ii * w + jj]
                     : 0.0f;
      }
      for (std::int64_t j = n_eff; j < kNr; ++j) dst[j] = 0.0f;
      if (++oj == ow) {
        oj = 0;
        ++oi;
      }
    }
  }
}

/// Scatter-adds a computed dcol tile (rows [row0, row0+rows) x pixels
/// [pixel0, pixel0+count), leading dimension count) into the dX plane —
/// the column-to-image scatter restricted to one cache-hot tile.
void scatter_col_tile(const float* tile, std::int64_t row0, std::int64_t rows,
                      std::int64_t pixel0, std::int64_t count,
                      const DecodeTable& dec, const ConvGeometry& g,
                      std::int64_t h, std::int64_t w, std::int64_t ow,
                      float* dx) {
  for (std::int64_t p = 0; p < rows; ++p) {
    const auto row = static_cast<std::size_t>(row0 + p);
    float* xplane = dx + static_cast<std::int64_t>(dec.c[row]) * h * w;
    const std::int64_t ki = dec.ki[row];
    const std::int64_t kj = dec.kj[row];
    const float* src = tile + p * count;
    std::int64_t t = 0;
    while (t < count) {
      const std::int64_t pixel = pixel0 + t;
      const std::int64_t oi = pixel / ow;
      const std::int64_t oj = pixel % ow;
      const std::int64_t run = std::min(count - t, ow - oj);
      const std::int64_t ii = oi * g.stride - g.padding + ki;
      if (ii < 0 || ii >= h) {
        t += run;
        continue;
      }
      float* xrow = xplane + ii * w;
      const std::int64_t jj = oj * g.stride - g.padding + kj;
      if (jj >= 0 && jj + (run - 1) * g.stride < w) {
        if (g.stride == 1) {
          for (std::int64_t r = 0; r < run; ++r) xrow[jj + r] += src[t + r];
        } else {
          for (std::int64_t r = 0; r < run; ++r) {
            xrow[jj + r * g.stride] += src[t + r];
          }
        }
      } else {
        for (std::int64_t r = 0; r < run; ++r) {
          const std::int64_t j2 = jj + r * g.stride;
          if (j2 >= 0 && j2 < w) xrow[j2] += src[t + r];
        }
      }
      t += run;
    }
  }
}

void bias_relu_epilogue(float* y, const float* bias, std::int64_t out_ch,
                        std::int64_t plane, bool relu) {
  if (bias == nullptr && !relu) return;
  for (std::int64_t oc = 0; oc < out_ch; ++oc) {
    const float b = bias != nullptr ? bias[oc] : 0.0f;
    float* row = y + oc * plane;
    if (relu) {
      for (std::int64_t j = 0; j < plane; ++j) {
        row[j] = std::max(row[j] + b, 0.0f);
      }
    } else if (b != 0.0f) {
      for (std::int64_t j = 0; j < plane; ++j) row[j] += b;
    }
  }
}

/// Runs `tiles(t0, t1)` over the `count` output-column tiles of a packed
/// kernel: as stealable subtasks when the caller asked for tile parallelism
/// (grain 1 — a tile is already kNc columns of work), serial otherwise.
template <typename Tiles>
void for_each_tile(std::int64_t count, bool parallel, const Tiles& tiles) {
  if (parallel && count > 1) {
    parallel_for(count, tiles, /*grain=*/1);
  } else {
    tiles(0, count);
  }
}

// ---- forward ----------------------------------------------------------------

RT_HOT void forward_packed(const float* x, std::int64_t c_in, std::int64_t h,
                           std::int64_t w, const ConvGeometry& g,
                           const float* weight, std::int64_t out_ch, float* y,
                           const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;

  // Weight panels: the batch-shared pre-pack when the caller supplied one
  // (panel ir starts at ir*ckk, its k-slice kc at + kc*kMr), else a local
  // pack (cost 1/ohw of the MACs). The local pack must be STACK-owned when
  // tiles go parallel: a worker blocked in the region's wait helps execute
  // other queued tasks, which can re-enter this function on the same thread
  // — a thread_local buffer would be republished to still-running tiles of
  // the first call. The serial path keeps the allocation-free thread_local.
  const float* wp;
  thread_local std::vector<float> wpack_tl;
  std::vector<float> wpack_frame;
  if (opts.packed_weights != nullptr && opts.packed_weights->has_forward() &&
      opts.packed_weights->matches(out_ch, ckk)) {
    wp = opts.packed_weights->forward_panels();
  } else {
    std::vector<float>& wpack = opts.parallel_tiles ? wpack_frame : wpack_tl;
    // Dynamic: panel size follows the layer shape. Serving never takes this
    // branch (tickets carry pre-packed panels); training pays it per call on
    // the parallel path only.
    wpack.resize(  // rtlint: allow(R2) shape-dependent weight panel
        static_cast<std::size_t>(round_up(out_ch, kMr) * ckk));
    pack_a_rows(weight, ckk, 0, out_ch, 0, ckk, wpack.data());
    wp = wpack.data();
  }

  // Padded layers whose plane fits kPadPlaneCap gather from a zero-bordered
  // copy staged once here; the rest (unpadded layers such as the 1x1
  // downsample convs, oversized planes) take the clipped gather. The copy
  // is frame-owned on the parallel path, for the wpack_frame reason above.
  std::vector<float> xpad_frame;
  const float* xpad =
      stage_padded(x, 1, 0, c_in, h, w, g.padding, 0.0f,
                   opts.parallel_tiles ? &xpad_frame : nullptr);
  const std::int64_t ph = h + 2 * g.padding, pw = w + 2 * g.padding;

  // Output-column tiles are independent (each writes its own y columns and
  // accumulates its kc panels in the fixed serial order), so they can run
  // as stealable subtasks when the batch alone cannot fill the machine.
  const std::int64_t tiles = (ohw + kNc - 1) / kNc;
  for_each_tile(tiles, opts.parallel_tiles,
                [&](std::int64_t t0, std::int64_t t1) {
    // Per-leaf lookups: the executing thread's own decode table and pack
    // buffer, never the spawning thread's (whose thread_locals may be
    // rebuilt under it while it helps with unrelated tasks).
    const DecodeTable& dec = decode_table(c_in, g.kernel);
    thread_local float bbuf[kKc * kNc];
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t jc = t * kNc;
      const std::int64_t nb = std::min(kNc, ohw - jc);
      for (std::int64_t kc = 0; kc < ckk; kc += kKc) {
        const std::int64_t kb = std::min(kKc, ckk - kc);
        if (xpad != nullptr) {
          pack_col_panel_padded(xpad, ph, pw, g, dec, kc, kb, jc, nb, ow,
                                bbuf);
        } else {
          pack_col_panel(x, h, w, g, dec, kc, kb, jc, nb, ow, bbuf);
        }
        for (std::int64_t ir = 0; ir < out_ch; ir += kMr) {
          const std::int64_t mr = std::min(kMr, out_ch - ir);
          const float* ap = wp + ir * ckk + kc * kMr;
          float* crow = y + ir * ohw + jc;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, ohw);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, ohw, mr, nr);
            }
          }
        }
      }
    }
  });
}

// ---- input gradient ---------------------------------------------------------

RT_HOT void dgrad_packed(const float* weight, std::int64_t out_ch,
                         const float* gout, std::int64_t c_in, std::int64_t h,
                         std::int64_t w, const ConvGeometry& g, float* dx,
                         const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const DecodeTable& dec = decode_table(c_in, g.kernel);

  // A = W^T: the transpose is paid once, in packing — by the batch-shared
  // pre-pack when available, else locally.
  const float* wtp;
  thread_local std::vector<float> wtpack;
  if (opts.packed_weights != nullptr && opts.packed_weights->has_dgrad() &&
      opts.packed_weights->matches(out_ch, ckk)) {
    wtp = opts.packed_weights->dgrad_panels();
  } else {
    // Dynamic: W^T panel size follows the layer shape (see forward_packed).
    wtpack.resize(  // rtlint: allow(R2) shape-dependent weight panel
        static_cast<std::size_t>(round_up(ckk, kMr) * out_ch));
    pack_a_rows_trans(weight, ckk, 0, ckk, 0, out_ch, wtpack.data());
    wtp = wtpack.data();
  }

  thread_local float bbuf[kKc * kNc];
  thread_local float ctile[kMcScatter * kNc];

  for (std::int64_t jc = 0; jc < ohw; jc += kNc) {
    const std::int64_t nb = std::min(kNc, ohw - jc);
    for (std::int64_t ic = 0; ic < ckk; ic += kMcScatter) {
      const std::int64_t mb = std::min(kMcScatter, ckk - ic);
      std::memset(ctile, 0, static_cast<std::size_t>(mb * nb) * sizeof(float));
      for (std::int64_t kc = 0; kc < out_ch; kc += kKc) {
        const std::int64_t kb = std::min(kKc, out_ch - kc);
        pack_b_cols(gout, ohw, kc, kb, jc, nb, bbuf);
        for (std::int64_t ir = 0; ir < mb; ir += kMr) {
          const std::int64_t mr = std::min(kMr, mb - ir);
          const float* ap = wtp + (ic + ir) * out_ch + kc * kMr;
          float* crow = ctile + ir * nb;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, nb);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, nb, mr, nr);
            }
          }
        }
      }
      scatter_col_tile(ctile, ic, mb, jc, nb, dec, g, h, w, ow, dx);
    }
  }
}

// ---- weight gradient --------------------------------------------------------

RT_HOT void wgrad_packed(const float* gout, const float* x, std::int64_t c_in,
                         std::int64_t h, std::int64_t w, const ConvGeometry& g,
                         std::int64_t out_ch, float* dw,
                         const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;

  // dW-column tiles are independent: each accumulates its own dw columns
  // over the pixel panels in the same ascending pc order as the serial
  // loop, so per-element summation order — and hence the bits — do not
  // change. The gout panel re-pack per (tile, pc) pair costs 1/kNc of the
  // tile's MACs, which the extra parallelism amortizes.
  const std::int64_t tiles = (ckk + kNc - 1) / kNc;
  for_each_tile(tiles, opts.parallel_tiles,
                [&](std::int64_t t0, std::int64_t t1) {
    // Executing thread's own caches (see forward_packed on why the
    // spawning thread's thread_locals must not be shared with leaves).
    const DecodeTable& dec = decode_table(c_in, g.kernel);
    thread_local std::vector<float> apack;
    thread_local float bbuf[kKc * kNc];
    // Dynamic: gout panel height follows out_ch. Steady-state free per
    // thread once grown to the model's widest layer.
    apack.resize(  // rtlint: allow(R2) shape-dependent gout panel
        static_cast<std::size_t>(round_up(out_ch, kMr) * kKc));
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t jc = t * kNc;
      const std::int64_t nb = std::min(kNc, ckk - jc);
      for (std::int64_t pc = 0; pc < ohw; pc += kKc) {
        const std::int64_t kb = std::min(kKc, ohw - pc);
        pack_a_rows(gout, ohw, 0, out_ch, pc, kb, apack.data());
        pack_colt_panel(x, h, w, g, dec, pc, kb, jc, nb, ow, bbuf);
        for (std::int64_t ir = 0; ir < out_ch; ir += kMr) {
          const std::int64_t mr = std::min(kMr, out_ch - ir);
          const float* ap = apack.data() + ir * kb;
          float* crow = dw + ir * ckk + jc;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, ckk);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, ckk, mr, nr);
            }
          }
        }
      }
    }
  });
}

// ---- int8 forward -----------------------------------------------------------

// GCC's AVX512 widening/shift intrinsics expand through an undef
// pass-through operand that trips -Wmaybe-uninitialized false positives at
// -O3 (GCC PR105593). Scoped to the int8 section; popped after the s8
// forward entry point below.
#if defined(RT_MICROKERNEL_S8_VNNI) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#define RT_S8_DIAG_PUSHED 1
#endif

/// gather_col_row at int8 width: gathers `count` consecutive virtual-im2col
/// values of one offset-u8 column row (fixed channel plane + kernel offset)
/// into a CONTIGUOUS byte buffer. Interior stride-1 runs collapse to a
/// memcpy (the input plane is already u8), pad rows to a memset of 128 —
/// the offset-u8 encoding of zero.
void gather_col_row_u8(const std::uint8_t* xplane, std::int64_t h,
                       std::int64_t w, std::int64_t stride, std::int64_t pad,
                       std::int64_t ki, std::int64_t kj, std::int64_t ow,
                       std::int64_t pixel0, std::int64_t count,
                       std::uint8_t* dst) {
  // Output-row decomposition with the div/mod done ONCE per call: within an
  // image row every source offset is affine in the output column, so each
  // row reduces to (pad memset | memcpy | pad memset) for stride 1 and a
  // strided copy otherwise. This gather runs per plane per layer on the
  // serving path — the per-row constant work is what it is measured by.
  std::int64_t oi = pixel0 / ow;
  std::int64_t oj = pixel0 - oi * ow;
  const std::int64_t jj_base = kj - pad;
  std::int64_t t = 0;
  while (t < count) {
    const std::int64_t run = std::min(count - t, ow - oj);
    const std::int64_t ii = oi * stride - pad + ki;
    std::uint8_t* d = dst + t;
    if (ii < 0 || ii >= h) {
      std::memset(d, 128, static_cast<std::size_t>(run));
    } else {
      const std::uint8_t* xrow = xplane + ii * w;
      if (stride == 1) {
        const std::int64_t j0 = oj + jj_base;  // first source column
        // Clip [j0, j0 + run) to the image width; lead/tail take the pad.
        const std::int64_t lead =
            std::min(run, std::max<std::int64_t>(0, -j0));
        const std::int64_t mid =
            std::max<std::int64_t>(0, std::min(run, w - j0) - lead);
        if (lead > 0) std::memset(d, 128, static_cast<std::size_t>(lead));
        if (mid > 0) {
          std::memcpy(d + lead, xrow + j0 + lead,
                      static_cast<std::size_t>(mid));
        }
        if (lead + mid < run) {
          std::memset(d + lead + mid, 128,
                      static_cast<std::size_t>(run - lead - mid));
        }
      } else {
        const std::int64_t jj = oj * stride + jj_base;
        for (std::int64_t r = 0; r < run; ++r) {
          const std::int64_t j2 = jj + r * stride;
          d[r] = (j2 >= 0 && j2 < w) ? xrow[j2] : std::uint8_t{128};
        }
      }
    }
    t += run;
    oj = 0;
    ++oi;
  }
}

/// Interleaves 4 contiguous k-row buffers into the quad position `dst`
/// (64 bytes: 16 lanes x 4 quad bytes): dst dword j = r0[j] | r1[j] << 8 |
/// r2[j] << 16 | r3[j] << 24. This is the transform between the linear
/// gather above and the sliver layout the micro-kernel consumes; writes are
/// a single contiguous 64-byte store per quad on the wide path.
inline void interleave_quad16(const std::uint8_t* r0, const std::uint8_t* r1,
                              const std::uint8_t* r2, const std::uint8_t* r3,
                              std::uint8_t* dst) {
#ifdef RT_MICROKERNEL_S8_VNNI
  const __m512i v0 = _mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0)));
  const __m512i v1 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1))), 8);
  const __m512i v2 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2))), 16);
  const __m512i v3 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3))), 24);
  _mm512_storeu_si512(dst, _mm512_or_si512(_mm512_or_si512(v0, v1),
                                           _mm512_or_si512(v2, v3)));
#else
  for (std::int64_t j = 0; j < kNrS8; ++j) {
    dst[j * 4 + 0] = r0[j];
    dst[j * 4 + 1] = r1[j];
    dst[j * 4 + 2] = r2[j];
    dst[j * 4 + 3] = r3[j];
  }
#endif
}

/// Packs rows [kc, kc+kb) x columns [jc, jc+nb) of the offset-u8 virtual
/// im2col matrix into kNrS8-lane QUAD slivers at `bp` (sliver depth
/// round_up4(kb)) — the int8 forward's B operand. The column space is the
/// whole batch: global column j = sample * OH*OW + pixel, sample i's plane at
/// xq + i * x_stride (or its padded copy at padded + i * pstride, see
/// stage_padded). Each k row decomposes into per-sample pixel runs,
/// gathered once across the tile into a linear staging row (index table,
/// padded-plane memcpy or clipped run-gather), then quad-interleaved into
/// every sliver with wide stores; edge lanes and the k tail pad with 128.
void pack_col_batch_u8q(const std::uint8_t* xq, std::int64_t x_stride,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        const DecodeTable& dec, std::int64_t kc,
                        std::int64_t kb, std::int64_t jc, std::int64_t nb,
                        std::int64_t ow, std::int64_t ohw, std::uint8_t* bp,
                        const std::int32_t* gather_idx,
                        const std::uint8_t* padded, std::int64_t pstride) {
  const std::int64_t kb4 = round_up4(kb);
  // 4 linear k-rows, padded to whole lane groups so the interleave reads
  // defined bytes past nb. 1 KiB, fixed — never allocates on the hot path.
  alignas(64) thread_local std::uint8_t rowbuf[4][kNcS8];
  const std::int64_t nb16 = (nb + kNrS8 - 1) / kNrS8 * kNrS8;
  const std::int64_t ph = h + 2 * g.padding, pw = w + 2 * g.padding;
  for (std::int64_t q = 0; q < kb4 / 4; ++q) {
    for (std::int64_t t = 0; t < 4; ++t) {
      const std::int64_t p = 4 * q + t;
      if (p >= kb) {
        std::memset(rowbuf[t], 128, static_cast<std::size_t>(nb16));
        continue;
      }
      const auto row = static_cast<std::size_t>(kc + p);
      std::uint8_t* d = rowbuf[t];
      std::int64_t done = 0;
      std::int64_t i = jc / ohw;
      std::int64_t pix = jc - i * ohw;
      while (done < nb) {
        const std::int64_t run = std::min(nb - done, ohw - pix);
        if (gather_idx != nullptr) {
          // Table path: one guarded byte load per element, no per-row setup
          // — the win on narrow planes whose image rows are a few bytes wide.
          const std::int32_t* ri = gather_idx + (kc + p) * ohw + pix;
          const std::uint8_t* base = xq + i * x_stride;
          for (std::int64_t j = 0; j < run; ++j) {
            const std::int32_t s = ri[j];
            d[done + j] = s >= 0 ? base[s] : std::uint8_t{128};
          }
        } else if (padded != nullptr) {
          // Padded-plane path (stride 1): the border already holds 128, so
          // each image row is one unconditional memcpy — padding cancels in
          // the source coordinates ((oi - p + ki) + p rows, likewise columns).
          const std::uint8_t* plane =
              padded + i * pstride +
              static_cast<std::int64_t>(dec.c[row]) * ph * pw;
          std::int64_t oi = pix / ow;
          std::int64_t oj = pix - oi * ow;
          const std::uint8_t* src =
              plane + (oi + dec.ki[row]) * pw + dec.kj[row];
          std::int64_t off = done, left = run;
          while (left > 0) {
            const std::int64_t r2 = std::min(left, ow - oj);
            std::memcpy(d + off, src + oj, static_cast<std::size_t>(r2));
            off += r2;
            left -= r2;
            oj = 0;
            src += pw;
          }
        } else {
          const std::uint8_t* xplane =
              xq + i * x_stride +
              static_cast<std::int64_t>(dec.c[row]) * h * w;
          gather_col_row_u8(xplane, h, w, g.stride, g.padding, dec.ki[row],
                            dec.kj[row], ow, pix, run, d + done);
        }
        done += run;
        pix = 0;
        ++i;
      }
      if (nb < nb16) {
        std::memset(rowbuf[t] + nb, 128, static_cast<std::size_t>(nb16 - nb));
      }
    }
    for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
      interleave_quad16(rowbuf[0] + jr, rowbuf[1] + jr, rowbuf[2] + jr,
                        rowbuf[3] + jr, bp + jr * kb4 + q * kNrS8 * 4);
    }
  }
}

}  // namespace

// ---- public entry points ----------------------------------------------------

RT_HOT void conv2d_forward_s8(const std::uint8_t* xq, std::int64_t n,
                              std::int64_t x_stride, std::int64_t c_in,
                              std::int64_t h, std::int64_t w,
                              const ConvGeometry& g,
                              const std::int8_t* w_panels, std::int64_t out_ch,
                              std::int32_t* acc, float* y,
                              std::int64_t y_stride, const S8Epilogue& ep,
                              const std::int32_t* gather_idx) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  if (out_ch <= 0 || ohw <= 0 || n <= 0) return;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t ckk4 = round_up4(ckk);
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  // Fixed per-thread sliver staging, sized once for the full-depth tile (the
  // deep-k path's kKcS8-deep blocks use its first 64 KiB), so the serving
  // path stays allocation-free.
  alignas(64) thread_local std::uint8_t bq[kKcFullS8 * kNcS8];
  std::int32_t tile[kMrS8 * kNrS8];
  // Stride-1 layers without an index table gather from padded staging
  // copies (stage_padded, zero encoding 128) while the planes fit its cap.
  const bool stage = gather_idx == nullptr && g.stride == 1;

  if (ckk4 > kKcFullS8) {
    // Deep-k path: one sample at a time, blocking over k through the
    // caller's int32 accumulator plane (out_ch * OH*OW). These planes are
    // large enough that per-sample fixed costs no longer matter.
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint8_t* xi = xq + i * x_stride;
      float* yi = y + i * y_stride;
      const std::uint8_t* padded =
          stage ? stage_padded(xi, 1, 0, c_in, h, w, g.padding,
                               std::uint8_t{128}, nullptr)
                : nullptr;
      std::memset(acc, 0, static_cast<std::size_t>(out_ch * ohw) *
                              sizeof(std::int32_t));
      for (std::int64_t jc = 0; jc < ohw; jc += kNcS8) {
        const std::int64_t nb = std::min(kNcS8, ohw - jc);
        for (std::int64_t kc = 0; kc < ckk; kc += kKcS8) {
          const std::int64_t kb = std::min(kKcS8, ckk - kc);
          const std::int64_t kb4 = round_up4(kb);
          pack_col_batch_u8q(xi, 0, h, w, g, dec, kc, kb, jc, nb, ow, ohw, bq,
                             gather_idx, padded, 0);
          for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
            const std::int64_t mr = std::min(kMrS8, out_ch - ir);
            // Panel slice: quad-major full-depth panels, so the k block at
            // kc (kKcS8 is a multiple of 4) starts kc * kMrS8 bytes into
            // panel ir.
            const std::int8_t* ap = w_panels + ir * ckk4 + kc * kMrS8;
            for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
              const std::int64_t nr = std::min(kNrS8, nb - jr);
              detail::micro_s8_block(kb4 / 4, ap, bq + jr * kb4, tile);
              acc_block_add(tile, acc + ir * ohw + jc + jr, ohw, mr, nr);
            }
          }
        }
        // Requantize this pixel tile while its accumulator columns are
        // still cache-hot; epilogue rows are output channels (leading
        // dimension ohw).
        requant_rows(acc + jc, ohw, out_ch, nb, ep, yi + jc, ohw);
      }
    }
    return;
  }

  // Full-depth path: the whole k extent fits one staged B tile, so each
  // 8x16 output block accumulates entirely in registers and requants
  // straight from the register tile — no int32 accumulator plane. Covers
  // every layer of the small-image models the engine serves.
  const std::uint8_t* padded =
      stage ? stage_padded(xq, n, x_stride, c_in, h, w, g.padding,
                           std::uint8_t{128}, nullptr)
            : nullptr;
  const std::int64_t pstride =
      c_in * (h + 2 * g.padding) * (w + 2 * g.padding);
  const std::int64_t nj = n * ohw;
  // When kNrS8 divides OH*OW every 16-column tile lies inside one sample
  // and requants straight into its activation rows; otherwise the tile is
  // requantized into a register-sized scratch and scattered per sample run.
  const bool col_aligned = (ohw % kNrS8) == 0;
  for (std::int64_t jc = 0; jc < nj; jc += kNcS8) {
    const std::int64_t nb = std::min(kNcS8, nj - jc);
    pack_col_batch_u8q(xq, x_stride, h, w, g, dec, 0, ckk, jc, nb, ow, ohw,
                       bq, gather_idx, padded, pstride);
    for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
      const std::int64_t mr = std::min(kMrS8, out_ch - ir);
      const std::int8_t* ap = w_panels + ir * ckk4;
      // Slice the per-row epilogue fields to this channel block; the
      // running amax pointer is shared across all tiles of the batch.
      S8Epilogue es = ep;
      es.scales = ep.scales + ir;
      if (ep.corr) es.corr = ep.corr + ir;
      if (ep.bias) es.bias = ep.bias + ir;
      for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
        const std::int64_t nr = std::min(kNrS8, nb - jr);
        detail::micro_s8_block(ckk4 / 4, ap, bq + jr * ckk4, tile);
        if (col_aligned) {
          const std::int64_t col = jc + jr;
          const std::int64_t i = col / ohw;
          const std::int64_t pix = col - i * ohw;
          requant_rows(tile, kNrS8, mr, nr, es,
                       y + i * y_stride + ir * ohw + pix, ohw);
        } else {
          float ytile[kMrS8 * kNrS8];
          requant_rows(tile, kNrS8, mr, nr, es, ytile, kNrS8);
          std::int64_t col = jc + jr, left = nr, toff = 0;
          while (left > 0) {
            const std::int64_t i = col / ohw;
            const std::int64_t pix = col - i * ohw;
            const std::int64_t seg = std::min(left, ohw - pix);
            float* yb = y + i * y_stride + ir * ohw + pix;
            for (std::int64_t r = 0; r < mr; ++r) {
              std::memcpy(yb + r * ohw, ytile + r * kNrS8 + toff,
                          static_cast<std::size_t>(seg) * sizeof(float));
            }
            col += seg;
            toff += seg;
            left -= seg;
          }
        }
      }
    }
  }
}

#ifdef RT_S8_DIAG_PUSHED
#pragma GCC diagnostic pop
#undef RT_S8_DIAG_PUSHED
#endif

std::vector<std::int32_t> build_s8_gather_index(std::int64_t c_in,
                                                std::int64_t h, std::int64_t w,
                                                const ConvGeometry& g) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  std::vector<std::int32_t> idx(static_cast<std::size_t>(ckk * ohw), -1);
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  for (std::int64_t p = 0; p < ckk; ++p) {
    const auto row = static_cast<std::size_t>(p);
    const std::int64_t base =
        static_cast<std::int64_t>(dec.c[row]) * h * w;
    const std::int64_t ki = dec.ki[row], kj = dec.kj[row];
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      const std::int64_t ii = oi * g.stride - g.padding + ki;
      if (ii < 0 || ii >= h) continue;
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        const std::int64_t jj = oj * g.stride - g.padding + kj;
        if (jj < 0 || jj >= w) continue;
        idx[static_cast<std::size_t>(p * ohw + oi * ow + oj)] =
            static_cast<std::int32_t>(base + ii * w + jj);
      }
    }
  }
  return idx;
}

void conv2d_forward_plane(const float* x, std::int64_t c_in, std::int64_t h,
                          std::int64_t w, const ConvGeometry& g,
                          const float* weight, std::int64_t out_ch, float* y,
                          const float* bias, bool relu,
                          const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  std::memset(y, 0, static_cast<std::size_t>(out_ch * oh * ow) *
                        sizeof(float));
  forward_packed(x, c_in, h, w, g, weight, out_ch, y, opts);
  bias_relu_epilogue(y, bias, out_ch, oh * ow, relu);
}

void conv2d_dgrad_plane(const float* weight, std::int64_t out_ch,
                        const float* gout, std::int64_t c_in, std::int64_t h,
                        std::int64_t w, const ConvGeometry& g, float* dx,
                        const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  dgrad_packed(weight, out_ch, gout, c_in, h, w, g, dx, opts);
}

void conv2d_wgrad_plane(const float* gout, const float* x, std::int64_t c_in,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        std::int64_t out_ch, float* dw,
                        const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  wgrad_packed(gout, x, c_in, h, w, g, out_ch, dw, opts);
}

void PackedWeights::pack(const float* weight, std::int64_t out_ch,
                         std::int64_t ckk, bool forward, bool dgrad) {
  out_ch_ = out_ch;
  ckk_ = ckk;
  if (forward) {
    fwd_.resize(static_cast<std::size_t>(round_up(out_ch, kMr) * ckk));
    pack_a_rows(weight, ckk, 0, out_ch, 0, ckk, fwd_.data());
  } else {
    fwd_.clear();
  }
  if (dgrad) {
    dgrad_.resize(static_cast<std::size_t>(round_up(ckk, kMr) * out_ch));
    pack_a_rows_trans(weight, ckk, 0, ckk, 0, out_ch, dgrad_.data());
  } else {
    dgrad_.clear();
  }
}

void PackedWeights::clear() {
  fwd_.clear();
  dgrad_.clear();
  out_ch_ = 0;
  ckk_ = 0;
}

}  // namespace rt
