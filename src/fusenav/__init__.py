"""fusenav: sensor-fusion navigation toolkit.

Submodules:

- core: columnar IMU and sonar logs, GPS fixes, frame conventions,
  quaternion math
- geo: WGS84/ECEF/ENU conversions, waypoint clustering, truth labeling
- sonar_ekf: two-sensor sonar distance fusion
- localizer: error-state EKF over IMU + GPS, with bench calibration
- perception: obstacle/drop-off detection, gated recognition dispatch
- feedback: tactile intensity mapping, rate-limited audio scheduling
- sim: deterministic scenario simulator (truth + IMU/GPS/sonar streams)
- metrics: trajectory evaluation against ground truth
- cli: command-line pipeline and file formats
"""

import os as _os

__version__ = "0.1.0"

# numpy loads OpenBLAS below, and OpenBLAS reads its thread count then, once.
# No fusenav product is large enough to split, so a worker thread would only
# spin: one thread, unless the user chose; os.environ is left as it was found.
_blas_unset = "OPENBLAS_NUM_THREADS" not in _os.environ
if _blas_unset:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .core import DataError, GpsFix, ImuLog, NumericalError, SonarChannel, SonarLog  # noqa: F401
finally:
    if _blas_unset:
        del _os.environ["OPENBLAS_NUM_THREADS"]
