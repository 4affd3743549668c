"""Helpers that more than one test module uses: the three polarization
pairs of the published line lists, and data-file edits."""

from h2plus.twophoton import PolarizationPair

PI_PI = PolarizationPair.from_token("pipi")
SP_SP = PolarizationPair.from_token("spsp")
SP_SM = PolarizationPair.from_token("spsm")
STANDARD = (PI_PI, SP_SP, SP_SM)


def overflow_l2_line_shifts(payload):
    """Edit a hyperfine_coefficients.json payload: finite c_e whose
    (0,2)->(1,2) line shifts exceed the float range."""
    for record in payload["coefficients"]:
        if record["L"] == 2:
            record["c_e"] = 1e308 if record["v"] else -1e308
