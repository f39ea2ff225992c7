"""Test ids for the equation-of-state models.

A test parametrized by an EOS mode is named by the model's branches:
hard-sphere is the Carnahan-Starling fluid with Speedy's solid, and
cs-extended the Carnahan-Starling fluid on all of (0, 1).  These are
the names the suite has always printed, so they stay fixed while the
mode strings are the CLI's.
"""

from hardball import eos

_MODEL_IDS = {eos.MODE_HARD_SPHERE: "hard-sphere-CS-Speedy",
              eos.MODE_CS_EXTENDED: "CS-extended-to-(0,1)"}


def pytest_make_parametrize_id(config, val, argname):
    return _MODEL_IDS.get(val) if isinstance(val, str) else None
