"""Expected results, taken from the paper rather than from the code under test.

For G = Z/ell^n x Z/ell and I the augmentation ideal of (Z/ell^(n+1))[G], a
certificate must show Sha^1_cyc = Sha^1_Sigma0 = Z/ell, Sha^1 = 0, and
Sha^1 = 0 again once any designated place leaves Sigma_0. For the ladder,
Sha^1_cyc(G, I) = Z/(n/e) with n = |G| and e the exponent of G.
"""

import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def certify_argv(ell, n, p):
    return ["certify", "--ell", str(ell), "--n", str(n), "--p", str(p)]


def golden_certificate(ell, n, p):
    """Canonical certify JSON written by the seed commit, as bytes."""
    with open(os.path.join(GOLDEN_DIR, f"certify_{ell}_{n}_{p}.json"), "rb") as fh:
        return fh.read()


def check_certificate(report, ell):
    """Problems with a certificate's canonical JSON dict; empty when it is right."""
    problems = []
    sha = report.get("sha", {})
    cyclic = [str(ell)]
    if report.get("conclusion") != "certified":
        problems.append(f"conclusion is {report.get('conclusion')!r}")
    if sha.get("cyc") != cyclic:
        problems.append(f"sha.cyc = {sha.get('cyc')}, expected {cyclic}")
    if sha.get("sigma0") != cyclic:
        problems.append(f"sha.sigma0 = {sha.get('sigma0')}, expected {cyclic}")
    if sha.get("full") != []:
        problems.append(f"sha.full = {sha.get('full')}, expected []")
    minus = sha.get("sigma0_minus") or {}
    if not minus:
        problems.append("sha.sigma0_minus is empty")
    for place, structure in minus.items():
        if structure != []:
            problems.append(f"sha.sigma0_minus[{place}] = {structure}, expected []")
    return problems


def sha_cyc_expected(order, exponent):
    """Invariant factors of Z/(order/exponent), as the CLI prints them."""
    f = order // exponent
    return [] if f == 1 else [str(f)]
