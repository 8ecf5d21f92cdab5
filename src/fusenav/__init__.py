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

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DataError,
    GpsFix,
    ImuLog,
    NumericalError,
    SonarChannel,
    SonarLog,
)
