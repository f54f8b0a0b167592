"""Pytest hooks: print one PASS/FAIL line per acceptance criterion."""

_CRITERIA = {
    "c01": "quadratic closed form matches iterated gradient descent to 1e-12",
    "c02": "coordinate-limit trichotomy matches 1e5-step empirical products (15 cells)",
    "c03": "shared-start race: 1/sqrt(k) escapes before 1/k; 1/k^4 stalls at a non-critical point",
    "c04": "random inits never converge to the saddle; on-axis inits always do (4 methods)",
    "c05": "resolvent step equals diag(1/2,2) by both routes; FD Jacobian spectrum matches",
    "c06": "entropy-mirror step reproduces the multiplicative-weights formula to 1e-12",
    "c07": "sequence operator contracts at the certified rate; Picard residuals decay at <= K",
    "c08": "chart matches the shooting oracle to 1e-4; tangent at 0; off-manifold inits escape",
    "c09": "forward bound stays within 2/lambda and rejects alpha_0*lambda >= 1; backward bound hits its closed form",
    "c10": "identical config and seed give byte-identical CSV output",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for key in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            for tag in _CRITERIA:
                if f"::test_{tag}" in nodeid:
                    ok = key == "passed" and verdicts.get(tag, True)
                    verdicts[tag] = ok
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for tag, label in _CRITERIA.items():
        if tag not in verdicts:
            continue
        status = "PASS" if verdicts[tag] else "FAIL"
        terminalreporter.write_line(f"[{tag.upper()}] {status} - {label}")
