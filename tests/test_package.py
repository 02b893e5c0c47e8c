"""The package namespace republishes its modules' public names."""

import thetawave
from thetawave import curve, elliptic, limits, solution, theta, verify


def test_package_all_is_module_all_union():
    modules = (curve, elliptic, limits, solution, theta, verify)
    names = {name for m in modules for name in m.__all__}
    assert set(thetawave.__all__) == names | {"__version__"}
    assert len(thetawave.__all__) == len(set(thetawave.__all__))
    for m in modules:
        for name in m.__all__:
            assert getattr(thetawave, name) is getattr(m, name)
