"""The degree ceiling is set in one place per computation.

An Ideal carries the ceiling of its own basis computation, and every ideal
built from it takes it along, so no public function needs one of its own.
``twovars_verify`` is the one exception: it builds its root ideal from bare
forms.  This walks the exported callables and the public methods of the
exported classes, so a pass-through parameter cannot come back, nor can a
private parameter that only one caller inside the package sets.  The
package also ships no data files: test fixtures live under tests/.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import cmreg


def _parameters(fn):
    try:
        return inspect.signature(fn).parameters
    except ValueError:  # an exception class with Exception's own __init__
        return {}


def _public_callables():
    """(name, callable) of every exported callable and of every public
    method of an exported class."""
    for name in cmreg.__all__:
        obj = getattr(cmreg, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def test_only_ideal_and_twovars_verify_take_a_degree_ceiling():
    takers = {name for name, fn in _public_callables()
              if "degree_ceiling" in _parameters(fn)}
    # Ideal's own methods (groebner_basis, contains, equals, ...) are
    # walked with the class
    assert takers == {"Ideal", "twovars_verify"}


def test_no_public_callable_takes_a_private_parameter():
    private = {f"{name}({param})" for name, fn in _public_callables()
               for param in _parameters(fn) if param.startswith("_")}
    assert not private


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
