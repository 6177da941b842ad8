"""Output checks for the benchmark, sharing no code with the program.

Everything is recomputed here from the paper's formulas with a binomial
kernel of its own (log-factorial table, whole (n, k) matrices at once),
and outputs are judged by properties, not by a golden hash, so a
legitimate change of Monte Carlo stream or of a rate formula the
workloads do not check keeps passing. Each ``check_*`` function returns
a list of problems; an empty list means the output is correct.

Nothing here imports ``threshauth``.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re

import numpy as np

CSV_HEADER = ["omega", "n", "tau", "threshold_strategy", "rate_strategy", "exact_worst",
              "elb1", "elb2", "mc_worst", "mc_stderr", "aborted"]
NUMERIC = ["n", "tau", "exact_worst", "elb1", "elb2", "mc_worst", "mc_stderr"]
FIG1A_ROUNDS = 256
FIG3_RATE_LABELS = ["guess:0.1", "guess:0.01", "guess:0.001", "ml", "hp:0.1", "hp:0.01"]
FIG3_THRESHOLD_LABELS = ["finite-sample", "asymptotic"]
# Deviation allowed between a Monte Carlo acceptance rate and the exact
# one, in Bernstein form z*sqrt(a(1-a)/T) + z^2/(3T): the second term
# keeps it honest when a is so small that a handful of events is normal.
MC_Z = 7.0
REL_TOL = 1e-8

_LOG_FACTORIAL = np.array([math.lgamma(i + 1.0) for i in range(2050)])


# -- binomial kernel ---------------------------------------------------------

@functools.lru_cache(maxsize=2)
def _log_comb_matrix(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n = np.arange(n_max + 1)[:, None]
    k = np.arange(n_max + 1)[None, :]
    valid = k <= n
    nk = np.where(valid, n - k, 0)
    kk = np.where(valid, k, 0)
    log_comb = np.where(
        valid, _LOG_FACTORIAL[n] - _LOG_FACTORIAL[kk] - _LOG_FACTORIAL[nk], -np.inf
    )
    beyond = np.arange(n_max + 2)[None, :] > n
    return log_comb, kk.astype(float), nk.astype(float), beyond


def accept_table(n_max: int, p: float) -> np.ndarray:
    """A[n, t] = Pr(Bin(n, p) <= t - 1) for 0 <= n <= n_max, 0 <= t <= n_max + 1.

    Entries with t > n are 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"oracle needs 0 < p < 1, got {p}")
    rows, cols = slice(0, n_max + 1), slice(0, n_max + 2)
    log_comb, k, nk, beyond = _log_comb_matrix(max(n_max, 512))
    log_comb, k, nk, beyond = log_comb[rows, rows], k[rows, rows], nk[rows, rows], beyond[rows, cols]
    pmf = np.exp(log_comb + k * math.log(p) + nk * math.log1p(-p))
    table = np.zeros((n_max + 1, n_max + 2))
    np.cumsum(pmf, axis=1, out=table[:, 1:])
    table[beyond] = 1.0
    return table


def accept_prob(n: int, tau: float, p: float) -> float:
    """Pr(Bin(n, p) < tau): the prover is accepted below the threshold."""
    t = math.ceil(tau)
    if t <= 0:
        return 0.0
    if t > n:
        return 1.0
    k = np.arange(n + 1)
    log_pmf = (_LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[n - k]
               + k * math.log(p) + (n - k) * math.log1p(-p))
    return min(1.0, math.fsum(np.exp(log_pmf[:t])))


def _threshold_candidates(tau: float) -> list[float]:
    # a tau printed at 12 digits that sits on an integer may have been on
    # either side of it in the program
    r = round(tau)
    if abs(tau - r) <= 1e-9 * max(1.0, abs(tau)):
        return [r - 0.5, r + 0.5]
    return [tau]


# -- closed forms ------------------------------------------------------------

def bound_rates(omega: float) -> tuple[float, float]:
    """Attacker floor (1 + w)/2 and user ceiling 2w."""
    return (1.0 + omega) / 2.0, 2.0 * omega


def physical_user_rate(omega: float) -> float:
    """Error rate of a user whose challenge and response each cross the channel."""
    return 1.0 - (1.0 - omega) ** 2


def elb1(n: int, gap: float, la: float, lu: float, lb: float) -> float:
    return n * lb + math.exp(-n * gap * gap / 2.0) * math.sqrt(la * lu)


def elb2(gap: float, la: float, lu: float, lb: float) -> float:
    return math.sqrt(8.0 * lb) * (la * lu) ** 0.25 / gap


def tau_hat_raw(n: int, pa: float, pu: float, la: float, lu: float) -> float:
    return n * (pa + pu) / 2.0 - math.log(la / lu) / (4.0 * (pa - pu))


def worst_loss(n: int, acc_att: float, acc_use: float, la: float, lu: float, lb: float) -> float:
    return max(n * lb + acc_att * la, n * lb + (1.0 - acc_use) * lu)


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-300) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# -- design queries ----------------------------------------------------------

_BOUNDS_PATTERNS = {
    "attacker_floor": r"^attacker_floor\s+(\S+)$",
    "user_ceiling": r"^user_ceiling\s+(\S+)$",
    "gap": r"^gap\s+(\S+)$",
    "n_hat": r"^n_hat\s+(\d+) \(real (\S+)\)$",
    "tau_hat": r"^tau_hat\(n=(\d+)\)\s+(\S+)( \[clamped\])?$",
    "elb1": r"^elb1\(n=(\d+)\)\s+(\S+)$",
    "elb2": r"^elb2\s+(\S+)$",
}


def _parse(patterns: dict, text: str) -> tuple[dict, list[str]]:
    found, problems = {}, []
    for key, pat in patterns.items():
        m = re.search(pat, text, flags=re.MULTILINE)
        if m is None:
            problems.append(f"no '{key}' line in output")
        else:
            found[key] = m.groups()
    return found, problems


def check_bounds(query: dict, stdout: str) -> list[str]:
    """`bounds` output against the closed-form design at the query."""
    got, problems = _parse(_BOUNDS_PATTERNS, stdout)
    if problems:
        return problems
    la, lu, lb = query["la"], query["lu"], query["lb"]
    pa, pu = bound_rates(query["omega"])
    gap = pa - pu
    for key, want in (("attacker_floor", pa), ("user_ceiling", pu), ("gap", gap)):
        if not _close(float(got[key][0]), want):
            problems.append(f"{key} {got[key][0]} != {want!r}")
    c = gap * gap
    real = (math.sqrt(1.0 + 2.0 * c * math.sqrt(la * lu) / lb) - 1.0) / c
    n_hat, real_got = int(got["n_hat"][0]), float(got["n_hat"][1])
    if abs(real_got - real) > 1e-6 + 1e-12 * real:
        problems.append(f"n_hat real {real_got} != {real!r}")
    candidates = {max(1, math.floor(real)), max(1, math.ceil(real))}
    best = min(elb1(n, gap, la, lu, lb) for n in candidates)
    if n_hat not in candidates or elb1(n_hat, gap, la, lu, lb) > best * (1.0 + 1e-12):
        problems.append(f"n_hat {n_hat} is not the better of {sorted(candidates)}")
    if int(got["tau_hat"][0]) != n_hat or int(got["elb1"][0]) != n_hat:
        problems.append("tau_hat/elb1 not evaluated at n_hat")
    raw = tau_hat_raw(n_hat, pa, pu, la, lu)
    lo, hi = n_hat * pu, n_hat * pa
    tau = min(max(raw, lo), hi)
    if not _close(float(got["tau_hat"][1]), tau):
        problems.append(f"tau_hat {got['tau_hat'][1]} != {tau!r}")
    near_edge = min(abs(raw - lo), abs(raw - hi)) <= 1e-9 * max(1.0, abs(raw))
    if not near_edge and bool(got["tau_hat"][2]) != (tau != raw):
        problems.append(f"clamped marker {bool(got['tau_hat'][2])}, expected {tau != raw}")
    if not _close(float(got["elb1"][1]), elb1(n_hat, gap, la, lu, lb)):
        problems.append(f"elb1 {got['elb1'][1]} != {elb1(n_hat, gap, la, lu, lb)!r}")
    if not _close(float(got["elb2"][0]), elb2(gap, la, lu, lb)):
        problems.append(f"elb2 {got['elb2'][0]} != {elb2(gap, la, lu, lb)!r}")
    return problems


_EXACT_PATTERNS = {
    "n_star": r"^n_star\s+(\d+)$",
    "tau_star": r"^tau_star\s+(-?\d+)$",
    "worst_loss": r"^worst_loss\s+(\S+)$",
}


def design_loss_table(query: dict, n_max: int) -> np.ndarray:
    """W[n, t]: exact worst-case loss of every design with n <= n_max, t <= n.

    Impossible designs (n = 0 or t > n) are inf.
    """
    la, lu, lb = query["la"], query["lu"], query["lb"]
    pa, pu = bound_rates(query["omega"])
    acc_att = accept_table(n_max, pa)
    acc_use = accept_table(n_max, pu)
    n = np.arange(n_max + 1)[:, None]
    table = np.maximum(n * lb + acc_att * la, n * lb + (1.0 - acc_use) * lu)
    t = np.arange(n_max + 2)[None, :]
    table[(t > n) | (n == 0)] = np.inf
    return table


def check_exact(query: dict, stdout: str, n_max: int) -> list[str]:
    """`exact` output: a global optimum of the exact worst-case loss."""
    got, problems = _parse(_EXACT_PATTERNS, stdout)
    if problems:
        return problems
    n_star, tau_star = int(got["n_star"][0]), int(got["tau_star"][0])
    loss = float(got["worst_loss"][0])
    if not (1 <= n_star <= n_max and 0 <= tau_star <= n_star):
        return [f"design (n={n_star}, tau={tau_star}) outside 1 <= tau <= n <= {n_max}"]
    pa, pu = bound_rates(query["omega"])
    la, lu, lb = query["la"], query["lu"], query["lb"]
    at_design = worst_loss(n_star, accept_prob(n_star, tau_star, pa),
                           accept_prob(n_star, tau_star, pu), la, lu, lb)
    if not _close(loss, at_design):
        problems.append(f"worst_loss {loss!r} != exact loss {at_design!r} at the design")
    # every design costs at least n * lb, so none with n * lb >= at_design
    # can do better: the table only needs the round counts below that
    n_limit = min(n_max, max(n_star, math.ceil(at_design / lb)))
    table = design_loss_table(query, n_limit)
    best = float(table.min())
    if at_design > best * (1.0 + 1e-9):
        n_best, t_best = np.unravel_index(int(np.argmin(table)), table.shape)
        problems.append(
            f"(n={n_star}, tau={tau_star}) has loss {at_design!r} but "
            f"(n={n_best}, tau={t_best}) has {best!r}"
        )
    return problems


# -- sweeps ------------------------------------------------------------------

def _read_csv(text: str) -> tuple[list[dict], list[str]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        return [], [f"CSV header {header} != {CSV_HEADER}"]
    rows, problems = [], []
    for i, rec in enumerate(reader):
        if len(rec) != len(CSV_HEADER):
            problems.append(f"row {i} has {len(rec)} fields")
            continue
        if any(re.search(r"nan|inf", f, flags=re.IGNORECASE) for f in rec):
            problems.append(f"row {i} has a nan or inf field: {rec}")
        rows.append(dict(zip(CSV_HEADER, rec)))
    return rows, problems


def _float(row: dict, key: str) -> float:
    return float(row[key])


def check_fig1a(text: str, grid: list[float], losses: dict) -> tuple[list[str], int]:
    """fig1a CSV: exact loss and bound recomputed, bound dominance checked.

    Returns the problems and the number of rows whose threshold lies in
    [n*pu, n*pa], where exact_worst <= elb1 must hold.
    """
    rows, problems = _read_csv(text)
    la, lu, lb = losses["la"], losses["lu"], losses["lb"]
    omegas = sorted(grid)
    if len(rows) != len(omegas) * FIG1A_ROUNDS:
        problems.append(f"{len(rows)} rows, expected {len(omegas) * FIG1A_ROUNDS}")
        return problems, 0
    dominated = 0
    for wi, w in enumerate(omegas):
        pa, pu = bound_rates(w)
        gap = pa - pu
        acc_att, acc_use = accept_table(FIG1A_ROUNDS, pa), accept_table(FIG1A_ROUNDS, pu)
        for n in range(1, FIG1A_ROUNDS + 1):
            row = rows[wi * FIG1A_ROUNDS + n - 1]
            where = f"omega={w:.6g} n={n}"
            try:
                if not _close(_float(row, "omega"), w, rel=1e-11) or int(row["n"]) != n:
                    problems.append(f"{where}: row is ({row['omega']}, {row['n']})")
                    continue
                if (row["threshold_strategy"], row["rate_strategy"], row["aborted"],
                        row["mc_worst"], row["mc_stderr"]) != ("finite-sample", "true-omega", "", "", ""):
                    problems.append(f"{where}: unexpected labels or Monte Carlo fields")
                tau = tau_hat_raw(n, pa, pu, la, lu)
                tau_got, exact_got = _float(row, "tau"), _float(row, "exact_worst")
                elb1_got = _float(row, "elb1")
                if abs(tau_got - tau) > 1e-9 * max(1.0, abs(tau)):
                    problems.append(f"{where}: tau {tau_got!r} != {tau!r}")
                exacts = []
                for cand in _threshold_candidates(tau):
                    t = min(max(math.ceil(cand), 0), n + 1)
                    exacts.append(worst_loss(n, acc_att[n, t], acc_use[n, t], la, lu, lb))
                if not any(_close(exact_got, e) for e in exacts):
                    problems.append(f"{where}: exact_worst {exact_got!r} != {exacts}")
                if not _close(elb1_got, elb1(n, gap, la, lu, lb)):
                    problems.append(f"{where}: elb1 {elb1_got!r} != {elb1(n, gap, la, lu, lb)!r}")
                if not _close(_float(row, "elb2"), elb2(gap, la, lu, lb)):
                    problems.append(f"{where}: elb2 {row['elb2']} != {elb2(gap, la, lu, lb)!r}")
                if n * pu <= tau_got <= n * pa:
                    dominated += 1
                    if exact_got > elb1_got * (1.0 + 1e-11):
                        problems.append(f"{where}: exact_worst {exact_got!r} > elb1 {elb1_got!r}")
            except ValueError as exc:
                problems.append(f"{where}: unparsable field ({exc})")
    return problems, dominated


def mc_allowance(accept: float, trials: int, z: float = MC_Z) -> float:
    """Largest credible |observed - exact| acceptance rate over ``trials`` runs."""
    return z * math.sqrt(accept * (1.0 - accept) / trials) + z * z / (3.0 * trials)


def check_fig3(text: str, grid: list[float], trials: int, k: int, losses: dict) -> list[str]:
    """fig3 CSV: layout, abort rows, exact loss, Monte Carlo within its noise.

    The Monte Carlo allowance comes from the exact acceptance
    probabilities of the row, never from the program's own mc_stderr.
    """
    rows, problems = _read_csv(text)
    la, lu, lb = losses["la"], losses["lu"], losses["lb"]
    omegas = sorted(grid)
    layout = [(w, r, t) for w in omegas for r in FIG3_RATE_LABELS for t in FIG3_THRESHOLD_LABELS]
    if len(rows) != len(layout):
        problems.append(f"{len(rows)} rows, expected {len(layout)}")
        return problems
    for row, (w, rlabel, tlabel) in zip(rows, layout):
        where = f"omega={w:.6g} {rlabel}/{tlabel}"
        try:
            if (not _close(_float(row, "omega"), w, rel=1e-11)
                    or (row["rate_strategy"], row["threshold_strategy"]) != (rlabel, tlabel)):
                problems.append(f"{where}: row is {row}")
                continue
            if row["aborted"]:
                if not re.fullmatch(r"[a-z][a-z-]*", row["aborted"]):
                    problems.append(f"{where}: abort marker {row['aborted']!r}")
                if any(row[f] for f in NUMERIC):
                    problems.append(f"{where}: aborted row has numeric fields {row}")
                continue
            if not all(row[f] for f in NUMERIC):
                problems.append(f"{where}: missing numeric fields {row}")
                continue
            n, tau = int(row["n"]), _float(row, "tau")
            if not 1 <= n <= k:
                problems.append(f"{where}: n={n} outside [1, {k}]")
                continue
            p_att, p_use = (1.0 + w) / 2.0, physical_user_rate(w)
            exact_got, mc = _float(row, "exact_worst"), _float(row, "mc_worst")
            if not _float(row, "mc_stderr") >= 0.0:
                problems.append(f"{where}: negative mc_stderr")
            matched = False
            for cand in _threshold_candidates(tau):
                a_att, a_use = accept_prob(n, cand, p_att), accept_prob(n, cand, p_use)
                exact = worst_loss(n, a_att, a_use, la, lu, lb)
                allowed = max(la * mc_allowance(a_att, trials), lu * mc_allowance(a_use, trials))
                if _close(exact_got, exact) and abs(mc - exact) <= allowed + 1e-9 * exact:
                    matched = True
            if not matched:
                problems.append(
                    f"{where}: exact_worst {exact_got!r} or mc_worst {mc!r} disagrees with "
                    f"exact {exact!r} (Monte Carlo allowance {allowed:.3g})"
                )
        except ValueError as exc:
            problems.append(f"{where}: unparsable field ({exc})")
    return problems
