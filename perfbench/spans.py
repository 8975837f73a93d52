"""Spans around the program's layers, recorded from outside the program.

``Tracer.install()`` replaces each entry point below by a timing wrapper in
every ``zetazeros`` module namespace that holds it: ``families``, ``zeros``,
``cli`` and ``dirichlet`` import names with ``from .special import ...``, so
patching the defining module alone would miss their calls.  Spans nest; a
span's self time is its duration minus the durations of the spans it
encloses, so the self times of all groups add up to the root spans' time.

An entry point that no longer exists is listed in ``Tracer.missing`` and its
metrics are left out, so a refactor that renames one shows up as a missing
metric, not as a zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span group, call counter)
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("special", "_hurwitz_combination", "special.em", "special.em.calls"),
    ("special", "_em_once", "special.em", "special.em.passes"),
    ("special", "_li_series", "special.li_series", "special.li_series.calls"),
    ("special", "_li_rational", "special.li_rational", "special.li_rational.calls"),
    ("special", "_hurwitz_reflect", "special.reflect", "special.reflect.calls"),
    ("special", "_pair_diff_reflect", "special.reflect", "special.reflect.calls"),
    ("special", "_li_functional_equation", "special.reflect", "special.reflect.calls"),
    ("special", "gamma", "special.gamma", "special.gamma.calls"),
    ("special", "log_gamma", "special.gamma", "special.gamma.calls"),
    ("families", "eval_family", "families.eval", "families.eval.calls"),
    ("zeros", "count_zeros_rectangle", "zeros.count", "zeros.count.calls"),
    ("zeros", "_winding_pass", "zeros.count", "zeros.count.passes"),
    ("zeros", "scan_real_zeros", "zeros.scan", "zeros.scan.calls"),
    ("zeros", "beta_zero", "zeros.beta", "zeros.beta.calls"),
    ("dirichlet", "l_function", "dirichlet.l_function", "dirichlet.l_function.calls"),
    ("dirichlet", "characters_mod", "dirichlet.characters", "dirichlet.characters.calls"),
    ("dirichlet", "linear_relation_residual", "dirichlet.relation", "dirichlet.relation.calls"),
)
ROOT = "cli.run"
ZERO_GROUPS = ("zeros.count", "zeros.scan", "zeros.beta")
EVAL_FAMILIES = ("Z", "P", "Y", "O", "X", "hurwitz", "periodic")


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "zetazeros" or name.startswith("zetazeros."))]


def rebind(original: Callable, replacement: Callable) -> List[Tuple[object, str]]:
    """Point every package-level name bound to ``original`` at ``replacement``."""
    sites = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append((module, attr))
    return sites


def hook_accuracy_warnings(on_warning: Callable[[], None]) -> bool:
    """Call ``on_warning`` each time the kernels raise an AccuracyWarning.

    The CLI installs a "once" filter and the warning text is fixed, so the
    warnings module shows only the first one in a process; counting at the
    kernels' ``special._warn_accuracy`` sees every one.  Returns False when
    that function no longer exists.
    """
    special = sys.modules.get("zetazeros.special")
    original = getattr(special, "_warn_accuracy", None)
    if original is None:
        return False

    def wrapper(*args, **kwargs):
        on_warning()
        return original(*args, **kwargs)

    rebind(original, functools.update_wrapper(wrapper, original))
    return True


class Tracer:
    """Self time per span group and counters, kept in memory for one traced run."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.family_s: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[list] = []  # [group, time covered by child spans]
        self._restore: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules()}
        for mod, attr, group, counter in ENTRY_POINTS:
            original = getattr(modules.get(mod), attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(original, group, counter, attr == "eval_family")
            self._restore += [(m, a, original) for m, a in rebind(original, wrapper)]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def root(self, fn: Callable) -> Callable:
        """``fn`` wrapped in the root span."""
        return self._wrap(fn, ROOT, ROOT + ".calls", False)

    def _wrap(self, fn: Callable, group: str, counter: str, per_family: bool) -> Callable:
        stack, self_s, counts, family_s = self._stack, self.self_s, self.counts, self.family_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            family = None
            if per_family:
                family = getattr(args[0], "value", str(args[0]))
                counts[f"families.eval.{family}.calls"] += 1
                for frame in reversed(stack):
                    if frame[0] in ZERO_GROUPS:
                        counts[frame[0] + ".evals"] += 1
                        break
            frame = [group, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[group] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if family is not None:
                    family_s[family] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def metrics(self, warnings: Optional[int]) -> Dict[str, Optional[float]]:
        """Per-layer metrics; entry points that are missing leave theirs out.

        ``warnings`` is the number of AccuracyWarnings the traced jobs raised
        (None when they cannot be counted).
        """
        c, s = self.counts, self.self_s
        absent = {name.split(".", 1)[1] for name in self.missing}
        out: Dict[str, Optional[float]] = {}

        def put(name: str, value, needs=()):
            if not absent.intersection(needs):
                out[name] = value

        def per(num: float, den: int, scale: float = 1.0):
            return num / den * scale if den else None

        em = ("_hurwitz_combination", "_em_once")
        put("special.em.calls", c["special.em.calls"], em)
        put("special.em.passes", c["special.em.passes"], em)
        put("special.em.passes_per_call", per(c["special.em.passes"], c["special.em.calls"]), em)
        put("special.em.self_s", s["special.em"], em)
        put("special.em.us_per_pass", per(s["special.em"], c["special.em.passes"], 1e6), em)
        put("special.li_series.calls", c["special.li_series.calls"], ("_li_series",))
        put("special.li_series.self_s", s["special.li_series"], ("_li_series",))
        put("special.li_series.us_per_call",
            per(s["special.li_series"], c["special.li_series.calls"], 1e6), ("_li_series",))
        put("special.li_rational.calls", c["special.li_rational.calls"], ("_li_rational",))
        put("special.li_rational.self_s", s["special.li_rational"], ("_li_rational",))
        reflect = ("_hurwitz_reflect", "_pair_diff_reflect", "_li_functional_equation")
        put("special.reflect.calls", c["special.reflect.calls"], reflect)
        put("special.reflect.self_s", s["special.reflect"], reflect)
        put("special.gamma.calls", c["special.gamma.calls"], ("gamma", "log_gamma"))
        put("special.gamma.self_s", s["special.gamma"], ("gamma", "log_gamma"))
        if warnings is not None:
            out["special.accuracy_warnings"] = warnings
        put("families.eval.calls", c["families.eval.calls"], ("eval_family",))
        put("families.eval.self_s", s["families.eval"], ("eval_family",))
        for fam in EVAL_FAMILIES:
            calls = c[f"families.eval.{fam}.calls"]
            put(f"families.eval.{fam}.calls", calls, ("eval_family",))
            put(f"families.eval.{fam}.us_per_call", per(self.family_s[fam], calls, 1e6), ("eval_family",))
        count = ("count_zeros_rectangle", "_winding_pass", "eval_family")
        put("zeros.count.calls", c["zeros.count.calls"], count)
        put("zeros.count.self_s", s["zeros.count"], count)
        put("zeros.count.evals", c["zeros.count.evals"], count)
        put("zeros.count.passes", c["zeros.count.passes"], count)
        for kind, fn in (("scan", "scan_real_zeros"), ("beta", "beta_zero")):
            put(f"zeros.{kind}.calls", c[f"zeros.{kind}.calls"], (fn, "eval_family"))
            put(f"zeros.{kind}.self_s", s[f"zeros.{kind}"], (fn, "eval_family"))
            put(f"zeros.{kind}.evals", c[f"zeros.{kind}.evals"], (fn, "eval_family"))
        put("dirichlet.l_function.calls", c["dirichlet.l_function.calls"], ("l_function",))
        put("dirichlet.l_function.self_s", s["dirichlet.l_function"], ("l_function",))
        put("dirichlet.characters.self_s", s["dirichlet.characters"], ("characters_mod",))
        put("dirichlet.relation.calls", c["dirichlet.relation.calls"], ("linear_relation_residual",))
        put("dirichlet.relation.self_s", s["dirichlet.relation"], ("linear_relation_residual",))
        put("cli.run.calls", c[ROOT + ".calls"])
        put("cli.run.self_s", s[ROOT])
        return out
