"""Bundled scenario fixtures for the three reproduction recipes."""

from pathlib import Path

BUNDLED = ("fig2_leo_haps", "fig3_haps_laps", "fig4_leo_ground")


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled scenario, by bare name or filename."""
    stem = name.removesuffix(".scn")
    if stem not in BUNDLED:
        raise KeyError(f"no bundled scenario {name!r}; available: {BUNDLED}")
    return Path(__file__).with_name(f"{stem}.scn")
