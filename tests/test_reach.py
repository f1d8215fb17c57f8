"""tools/reach.py: the code objects a traced run never starts."""

import importlib.util
import os

from csdyn import certificates

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "reach.py")
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


def test_reach_lists_what_a_check_does_not_run():
    seen = reach.traced(lambda: certificates.cert_two_form_antisymmetry(7))
    never = reach.unreached(seen)
    names = {name for _, _, name in never}
    assert "eval_two_form" not in names  # the check evaluates its forms with it
    assert "classify_ensemble" in names
    assert "cert_two_form_antisymmetry" not in names
    assert all(os.path.basename(os.path.dirname(path)) == "csdyn" and line >= 1
               for path, line, _ in never)
    # module and class bodies are left out
    assert not names & {"<module>", "ModelSpec", "IntegratorConfig"}
