"""Walk through one LEO-to-HAPS overhead pass.

Propagates a 535 km circular orbit over a 20 km quasi-static platform,
prints the culmination geometry and a coarse table of the pass, and
checks the peak slew rate against the analytic overhead-pass value.
"""

import math

from skyqlink.constants import EARTH_RADIUS, GM_EARTH
from skyqlink.geometry import propagate_pass

leo_altitude_m = 535e3
haps_altitude_m = 20e3

pass_geometry = propagate_pass(leo_altitude_m, haps_altitude_m,
                               max_elevation_rad=math.pi / 2,
                               sample_interval_s=1.0,
                               horizon_elevation_rad=math.radians(10.0))

print(f"samples above 10 deg elevation: {len(pass_geometry)}")
print(f"pass duration: {pass_geometry.duration_s:.0f} s")

mid = len(pass_geometry) // 2
print(f"culmination: elevation "
      f"{math.degrees(pass_geometry.elevation_rad[mid]):.1f} deg, "
      f"range {pass_geometry.range_m[mid] / 1e3:.1f} km, "
      f"slew {pass_geometry.slew_rad_s[mid] * 1e3:.2f} mrad/s")

v_orb = math.sqrt(GM_EARTH / (EARTH_RADIUS + 535e3))
print(f"analytic overhead slew v/L = {v_orb / (535e3 - 20e3) * 1e3:.2f} mrad/s")

print("\n   t(s)   elev(deg)   range(km)   slew(mrad/s)")
for i in range(0, len(pass_geometry), len(pass_geometry) // 10):
    print(f"{pass_geometry.t_s[i]:7.0f}   "
          f"{math.degrees(pass_geometry.elevation_rad[i]):9.2f}   "
          f"{pass_geometry.range_m[i] / 1e3:9.1f}   "
          f"{pass_geometry.slew_rad_s[i] * 1e3:10.3f}")
