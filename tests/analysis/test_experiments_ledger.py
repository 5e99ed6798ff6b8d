"""EXPERIMENTS.md's measured columns agree with the committed results.

E1-E4 and E8 quote numbers that the figure harnesses write to
``results/*.txt`` (each a golden that CI regenerates).  This test reads
both: every measured cell of those tables must quote what the results
file says, and every percentage or speed-up it quotes must be one the
test derived from that file, so a stale number fails here instead of
surviving in prose.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).parents[2]
RESULTS = REPO / "results"

#: A quoted quantity: ``8.0%``, ``23.5×``, ``6–29%``.
QUANTITY = re.compile(r"\d+(?:\.\d+)?(?:–\d+(?:\.\d+)?)?(?:%|×)")


def _sections() -> dict[str, str]:
    text = (REPO / "EXPERIMENTS.md").read_text()
    parts = re.split(r"^## (E\d+) — .*$", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def measured_column(section: str) -> dict[str, str]:
    """claim -> measured cell of the section's ``| claim | paper |
    measured |`` table."""
    rows = {}
    for line in _sections()[section].splitlines():
        cells = [cell.strip() for cell in line.strip().split("|")[1:-1]]
        if len(cells) == 3 and cells[0] not in ("claim", "---"):
            rows[cells[0]] = cells[2]
    assert rows, f"{section}: no measured table"
    return rows


def _lines(name: str) -> list[str]:
    return (RESULTS / f"{name}.txt").read_text().splitlines()


def _footer(name: str, pattern: str) -> tuple[str, ...]:
    for line in _lines(name):
        match = re.search(pattern, line)
        if match:
            return match.groups()
    raise AssertionError(f"{name}.txt: no line matches {pattern!r}")


def _table(name: str, pattern: str) -> dict[str, list[float]]:
    """Row name -> its numbers, for every line matching ``pattern``
    (a row name followed by numeric cells)."""
    rows = {}
    for line in _lines(name):
        match = re.fullmatch(pattern, line)
        if match:
            rows[match.group(1)] = [float(value)
                                    for value in match.groups()[1:]]
    assert rows, f"{name}.txt: no table rows"
    return rows


def _pct(ratio: float) -> int:
    return round(100 * ratio)


def e1_claims() -> dict[str, list[str]]:
    table = _table("figure12_parsec_phoenix",
                   r"(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)"
                   r"\s+([\d.]+)%")
    tcg_ver = {name: row[1] for name, row in table.items()}
    native = [row[3] for row in table.values()]
    gain_avg, gain_max = _footer(
        "figure12_parsec_phoenix",
        r"tcg-ver gain: avg\s+([\d.]+)%.*max\s+([\d.]+)%")
    share_avg, share_max, share_at = _footer(
        "figure12_parsec_phoenix",
        r"fence cost share \(qemu\): avg\s+([\d.]+)%.*"
        r"max\s+([\d.]+)% on (\w+)")
    best = min(tcg_ver, key=tcg_ver.get)
    assert f"{100 * (1 - tcg_ver[best]):.1f}" == gain_max
    shares = {name: row[4] for name, row in table.items()}
    assert max(shares, key=shares.get) == share_at
    delta = max(abs(row[2] - row[1]) / row[1] for row in table.values())
    assert delta < 0.01
    return {
        "tcg-ver gain, average": [f"{gain_avg}%"],
        "tcg-ver gain, maximum": [f"{gain_max}%", f"on {best}"],
        "fence share of QEMU run time, average": [f"{share_avg}%"],
        "fence share, maximum": [f"{share_max}%", f"on {share_at}"],
        "native much faster than any DBT variant":
            [f"{_pct(min(native))}–{_pct(max(native))}%"],
        "risotto == tcg-ver on linker-free workloads (§7.3)": ["< 1%"],
        "every variant computes identical results": [],
    }


def _speedups(name: str) -> dict[str, tuple[float, float]]:
    table = _table(name, r"([\w-]+)\s+([\d.]+)x\s+([\d.]+)x")
    return {row: (values[0], values[1]) for row, values in table.items()}


def e2_claims() -> dict[str, list[str]]:
    speedups = _speedups("figure13_openssl_sqlite")
    risotto = {name: pair[0] for name, pair in speedups.items()}
    assert min(risotto, key=risotto.get) == "md5-1024"
    assert max(risotto, key=risotto.get) == "sha256-8192"
    assert risotto["md5-8192"] > risotto["md5-1024"]
    shortfall = max(1 - r / n for r, n in speedups.values())
    assert shortfall < 0.25
    sqlite = speedups["sqlite"]
    return {
        "smallest speedup: md5-1024": [f"{risotto['md5-1024']:.2f}×"],
        "largest speedup: sha256-8192": [f"{risotto['sha256-8192']:.1f}×"],
        "larger inputs gain more (md5-8192 > md5-1024)":
            [f"{risotto['md5-8192']:.2f}× > {risotto['md5-1024']:.2f}×"],
        "risotto ≈ native for long calls": ["within 25%"],
        "linked and translated results identical": [],
        "sqlite speedtest gains":
            [f"{sqlite[0]:.1f}× (risotto)", f"{sqlite[1]:.1f}× (native)"],
    }


def e3_claims() -> dict[str, list[str]]:
    speedups = _speedups("figure14_mathlib")
    risotto = {name: pair[0] for name, pair in speedups.items()}
    native = max(pair[1] for pair in speedups.values())
    slowest = min(risotto, key=risotto.get)
    fastest = max(risotto, key=risotto.get)
    assert all(r < n for r, n in speedups.values())
    return {
        "risotto range": [
            f"{risotto[slowest]:.1f}× ({slowest})",
            f"{risotto[fastest]:.1f}× ({fastest})",
            f"cos = {risotto['cos']:.1f}×"],
        "native range": [f"~{round(native)}×"],
        "risotto < native on every function (marshaling not amortized)":
            [f"all {len(speedups)} functions"],
        f"{slowest} gains least": [f"{risotto[slowest]:.2f}×",
                                   "paper's ~1×"],
    }


def e4_claims() -> dict[str, list[str]]:
    table = _table("figure15_cas",
                   r"\s*((\d+)-(\d+))\s+([\d.]+)M\s+([\d.]+)M\s+([\d.]+)M")
    avg, best = _footer("figure15_cas",
                        r"risotto vs qemu: avg\s+([\d.]+)%.*"
                        r"best uncontended\s+([\d.]+)%")
    gains = {label: row[3] / row[2] - 1 for label, row in table.items()}
    uncontended = [gains[label] for label, row in table.items()
                   if row[0] == row[1]]
    contended = [gains[label] for label, row in table.items()
                 if row[0] > row[1]]
    assert max(contended) <= 0.08 < min(uncontended)
    assert all(row[4] >= row[3] for row in table.values())
    risotto = {label: row[3] for label, row in table.items()}
    assert risotto["4-4"] > 2 * risotto["4-1"]
    assert risotto["16-16"] > 2 * risotto["16-1"]
    return {
        "risotto > QEMU only when #threads == #variables": [
            f"{_pct(min(uncontended))}–{_pct(max(uncontended))}% "
            "uncontended", "≤8% contended"],
        "best gain": [f"{best}%"],
        "average gain over all configs": [f"{avg}%"],
        "contention collapses throughput at fixed thread count":
            ["4-4 > 2 × 4-1", "16-16 > 2 × 16-1"],
        "native ≥ risotto everywhere": [],
    }


def minimality_rows() -> dict[str, list[str]]:
    """Ablation -> the tests it breaks, as the E8 report lists them."""
    broken = {}
    for line in _lines("minimality_ablation")[2:]:
        if line.startswith("---"):
            break
        broken[line[:40].strip()] = line[40:].split(", ")
    return broken


CLAIMS = {"E1": e1_claims, "E2": e2_claims, "E3": e3_claims,
          "E4": e4_claims}


@pytest.mark.parametrize("section", sorted(CLAIMS))
def test_measured_column_quotes_the_results(section):
    """Each claim's cell holds the quantities derived from the results
    file, and no quantity the test did not derive."""
    claims = CLAIMS[section]()
    cells = measured_column(section)
    assert cells.keys() == claims.keys()
    for claim, quoted in claims.items():
        cell = cells[claim]
        for text in quoted:
            assert text in cell, (section, claim, text, cell)
        derived = {q for text in quoted for q in QUANTITY.findall(text)}
        stray = set(QUANTITY.findall(cell)) - derived
        assert not stray, (section, claim, stray, cell)


def test_minimality_rows_name_what_breaks():
    """E8: one row per ablation, each with its count of broken tests,
    and every test it names among them."""
    broken = minimality_rows()
    cells = measured_column("E8")
    assert cells.keys() == broken.keys()
    for label, cell in cells.items():
        count = int(re.match(r"(\d+) tests? breaks?", cell).group(1))
        assert count == len(broken[label]), (label, cell)
        named = re.findall(r"\b[A-Z][\w+]*\b", cell.split(":", 1)[-1]
                           .split("among them", 1)[-1])
        assert named and set(named) <= set(broken[label]), (label, named)
