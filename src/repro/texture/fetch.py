"""Fused texel fetch: address calculation, texel fetch and filtering.

In Figure 2's texture unit the Texel Address Calculator computes each
sample's texel addresses once and feeds them both to the texture cache
and to the filter. :func:`fetch_trilinear` does the same for a batch
of trilinear samples: it wraps each 2x2 footprint once per mip level
and derives, from the same wrapped coordinates, the flat-store indices
the filter gathers from and (given a layout) the cache lines the
texture cache sees.
"""

from __future__ import annotations

import numpy as np

from .addressing import _LINE_SHIFT
from .mipmap import MipChain

#: Samples fetched at once: bounds the scratch blocks (an ``(8, chunk)``
#: int64 index block and an ``(8, chunk, 4)`` float32 texel block,
#: 1.5 MiB together) whatever the batch size.
FETCH_CHUNK = 1 << 13


def fetch_trilinear(chain: MipChain, info, layout=None, tex_index: int = 0):
    """Fetch and blend the 8 texels of each trilinear sample of ``info``.

    ``info`` is a :class:`~repro.texture.sampler.TrilinearInfo`.
    Texture sizes are powers of two, so ``x & (size - 1)`` wraps a
    coordinate exactly as ``np.mod(x, size)`` does, negative ones
    included. Texels are taken as 16-byte items (one RGBA float32 texel
    each) in corner-major ``(8, chunk)`` order, which copies their bits
    unchanged, and blended corner by corner with the float32 operations,
    in the order, of the per-sample definition (``a * (1 - f) + b * f``
    along u, then v, then between the levels).

    Returns ``(colors, lines)``: ``(*shape, 4)`` float32 colours and,
    with a ``layout``, the ``(*shape, 8)`` int64 cache-line addresses
    of texture ``tex_index``'s texels (``None`` without one). Both use
    the 8-texel order of
    :func:`~repro.texture.sampler.texel_coords_from_info`.
    """
    flat, bases, widths, heights = chain.flat_store()
    texels = flat.view(np.complex128).reshape(-1)
    fields = (info.l0, info.iu0, info.iv0, info.fu0, info.fv0,
              info.l1, info.iu1, info.iv1, info.fu1, info.fv1, info.lfrac)
    shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    l0, iu0, iv0, fu0, fv0, l1, iu1, iv1, fu1, fv1, lfrac = (
        np.broadcast_to(f, shape).reshape(-1) for f in fields
    )
    levels = ((l0, iu0, iv0, fu0, fv0), (l1, iu1, iv1, fu1, fv1))
    count = lfrac.size

    colors = np.empty((count, 4), dtype=np.float32)
    lines = None if layout is None else np.empty((count, 8), dtype=np.int64)
    for start in range(0, count, FETCH_CHUNK):
        part = slice(start, min(start + FETCH_CHUNK, count))
        idx = np.empty((8, part.stop - start), dtype=np.int64)
        for corner, (level, iu, iv, _, _) in zip((0, 4), levels):
            lv = level[part]
            w = widths[lv]
            wmask = w - 1
            x0 = iu[part] & wmask
            x1 = iu[part] + 1
            x1 &= wmask
            hmask = heights[lv] - 1
            y0 = iv[part] & hmask
            y1 = iv[part] + 1
            y1 &= hmask
            base = bases[lv]
            row0 = y0 * w
            row0 += base
            row1 = y1 * w
            row1 += base
            np.add(row0, x0, out=idx[corner])
            np.add(row0, x1, out=idx[corner + 1])
            np.add(row1, x0, out=idx[corner + 2])
            np.add(row1, x1, out=idx[corner + 3])
            if lines is not None:
                row0, row1, col0, col1 = layout.footprint_offsets(
                    tex_index, lv, x0, x1, y0, y1
                )
                out = lines[part]
                np.add(row0, col0, out=out[:, corner])
                np.add(row0, col1, out=out[:, corner + 1])
                np.add(row1, col0, out=out[:, corner + 2])
                np.add(row1, col1, out=out[:, corner + 3])
        if lines is not None:
            lines[part] >>= _LINE_SHIFT

        g = texels.take(idx).view(np.float32).reshape(8, -1, 4)
        for corner, (_, _, _, fu, fv) in zip((0, 4), levels):
            _blend_footprint(
                g[corner:corner + 4], _per_channel(fu[part]), _per_channel(fv[part])
            )
        lf = _per_channel(lfrac[part])
        g[0] *= 1 - lf
        g[4] *= lf
        np.add(g[0], g[4], out=colors[part])
    colors = colors.reshape(*shape, 4)
    return colors, None if lines is None else lines.reshape(*shape, 8)


def _per_channel(weight: np.ndarray) -> np.ndarray:
    """A per-sample weight repeated over RGBA, as a ``(k, 4)`` array.

    Multiplying by it equals multiplying by ``weight[:, None]``, but
    numpy runs a ``(k, 4)`` by ``(k, 4)`` product as one contiguous
    loop instead of ``k`` loops of 4 channels.
    """
    return np.repeat(weight, 4).reshape(-1, 4)


def _blend_footprint(g: np.ndarray, fu: np.ndarray, fv: np.ndarray) -> None:
    """Bilinear blend of one level's ``(4, k, 4)`` corners into ``g[0]``.

    The same float32 operations in the same order as
    ``top = c00 * (1 - fu) + c10 * fu``, ``bot`` likewise, then
    ``top * (1 - fv) + bot * fv``, done in place (``fu``/``fv`` from
    :func:`_per_channel`).
    """
    g[0::2] *= 1 - fu
    g[1::2] *= fu
    g[0] += g[1]
    g[2] += g[3]
    g[0] *= 1 - fv
    g[2] *= fv
    g[0] += g[2]
