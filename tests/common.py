"""Helpers that more than one test module uses: the three polarization
pairs of the published line lists, and edited copies of the data."""

import json
import shutil

from h2plus.datafiles import default_data_dir
from h2plus.twophoton import PolarizationPair

PI_PI = PolarizationPair.from_token("pipi")
SP_SP = PolarizationPair.from_token("spsp")
SP_SM = PolarizationPair.from_token("spsm")
STANDARD = (PI_PI, SP_SP, SP_SM)


def data_copy(tmp_path, edits=None):
    """A copy of the bundled data directory at tmp_path/data, with `edits`
    applied.  `edits` maps a file name under the directory to its edit:
    bytes replace the file, and a function is called on the parsed JSON
    payload, which it changes in place or replaces by returning another."""
    data = tmp_path / "data"
    shutil.copytree(default_data_dir(), data)
    for name, edit in (edits or {}).items():
        path = data / name
        if isinstance(edit, bytes):
            path.write_bytes(edit)
        else:
            payload = json.loads(path.read_text())
            path.write_text(json.dumps(edit(payload) or payload))
    return data


def overflow_l2_line_shifts(payload):
    """Edit a hyperfine_coefficients.json payload: finite c_e whose
    (0,2)->(1,2) line shifts exceed the float range."""
    for record in payload["coefficients"]:
        if record["L"] == 2:
            record["c_e"] = 1e308 if record["v"] else -1e308
