"""The scalar bisection of `moduli.sample_point`, one numpy quaternion word
per evaluation and all 65 scan nodes evaluated: the oracle that the
screened scan and the early-stopping bisection must match bit for bit."""

import numpy as np

from parhodge.localsys import quat_angle, quat_conj, quat_from_axis_angle
from parhodge.moduli import _quat_word
from parhodge.surface import presentation


def _scaled(q, t):
    """Quaternion with the same axis and rotation angle scaled by t."""
    theta = quat_angle(q)
    norm = np.linalg.norm(q[1:])
    if norm < 1e-15:
        return np.array([1.0, 0, 0, 0])
    return quat_from_axis_angle(q[1:] / norm, t * theta)


def _solve_last_bisect(g, k, images, target):
    """Bisection on the rotation-angle scaling of the last handle image."""
    rel_free = presentation(g, k)[1][:-1]  # all but the forced last letter
    b_name = f"b{g}"
    b_full = images[b_name]

    def forced(t):
        imgs = dict(images)
        imgs[b_name] = _scaled(b_full, t)
        w = _quat_word(imgs, rel_free)
        return quat_conj(w), imgs

    def f(t):
        return quat_angle(forced(t)[0]) - target

    ts = np.linspace(0.0, 1.0, 65)
    vals = [f(t) for t in ts]
    bracket = None
    for lo, hi, flo, fhi in zip(ts, ts[1:], vals, vals[1:]):
        if flo == 0.0 or flo * fhi <= 0.0:
            bracket = (lo, hi, flo, fhi)
            break
    if bracket is None:
        return None
    lo, hi, flo, fhi = bracket
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    q, imgs = forced(0.5 * (lo + hi))
    images.update(imgs)
    return q
