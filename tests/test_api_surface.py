"""The degree ceiling is set in one place per computation.

An Ideal carries the ceiling of its own basis computation, and every ideal
built from it takes it along, so no public function needs one of its own.
``twovars_verify`` is the one exception: it builds its root ideal from bare
forms.  This walks the exported callables and the public methods of the
exported classes, so a pass-through parameter cannot come back.  The
package also ships no data files: test fixtures live under tests/.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import cmreg


def _accepts_ceiling(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except ValueError:  # an exception class with Exception's own __init__
        return False
    return "degree_ceiling" in params


def test_only_ideal_and_twovars_verify_take_a_degree_ceiling():
    takers = set()
    for name in cmreg.__all__:
        obj = getattr(cmreg, name)
        if not callable(obj):
            continue
        if _accepts_ceiling(obj):
            takers.add(name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") or not callable(member):
                    continue
                if _accepts_ceiling(member):
                    takers.add(f"{name}.{attr}")
    # Ideal's own methods (groebner_basis, contains, equals, ...) are
    # walked with the class
    assert takers == {"Ideal", "twovars_verify"}


def test_the_package_ships_no_data_files():
    # the projective-plane fixture lives under tests/; -S keeps the
    # interpreter's own site hooks out of the module list
    src = str(Path(cmreg.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import cmreg; "
            "print('importlib.resources' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert not any(name.startswith("projective_plane")
                   for name in cmreg.__all__)
