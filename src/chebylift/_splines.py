"""scipy's spline classes, imported on the first fit: building a net or a
lift fits none, and ``scipy.interpolate`` is most of the library's import
time."""


def CubicSpline(*args, **kwargs):
    from scipy.interpolate import CubicSpline
    return CubicSpline(*args, **kwargs)


def RectBivariateSpline(*args, **kwargs):
    from scipy.interpolate import RectBivariateSpline
    return RectBivariateSpline(*args, **kwargs)
