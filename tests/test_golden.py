"""Byte-identity gate: `engage replicate` writes exactly the pinned artifacts.

A refactor must leave every artifact byte for byte as it was. The digests
were taken under Python 3.11.7 and hold under 3.10, 3.11, 3.12 and 3.13
alike; they depend on no third-party package, since the p-values come from
engage's own incomplete beta in `engage.stats`. Every summary statistic
and every r is rounded once from exact integer sums, so the digests depend
on the C library only through the p-values' `lgamma`, `log`, `log1p` and
`exp`. A deliberate change of output re-pins them: run
`python -m engage.cli replicate --out DIR`, replace the digests below by
the output of `sha256sum DIR/*`, and name the output change in CHANGES.md.
"""

import hashlib

from engage.cli import main

GOLDEN = {
    "bundle.json": "7faf229efaeacf8a078d1e1f92af71296039afc721e62745b6a30f98060b2387",
    "hist_cpki.svg": "b2061a9bfab5c21ccd50d0bed650444531c60d3490ed233f29582a9da18c1b53",
    "hist_cpki.txt": "16d6bea5f36f8bc57186939c58fe8809c51f1cee45e1c3ecfd15e102987c0831",
    "hist_disp.svg": "0c4731d707d38624aadf1b1c1aab6732044bbca5ccdc23da9cd96e22b49343e9",
    "hist_disp.txt": "29dc593bb8feaf45c9b680fee6beceb43950f4e930c07fed2ff3c72355e27cb0",
    "hist_vpki.svg": "25ad0220a15d0a455a2f96db83e9c4ce46d860e1156c041e432a45419120bbaa",
    "hist_vpki.txt": "635c568aab85757c044c1ccbd33fb59be8720695333967570e04fb79b9d83482",
    "report.csv": "22a05a24d00ee8a567e94c3bdb6ba3e2b61ac0db0635d35bb05c665b44337f17",
    "report.json": "7faf229efaeacf8a078d1e1f92af71296039afc721e62745b6a30f98060b2387",
    "report.md": "7f222641a2d51b2ddac6dad52376346685874a9b8647696a59e5a74a2c9fabc0",
    "snapshots.jsonl": "49af3049548e0d53f643398af01ee151db76895dc89862b19525c40d722ec7cf",
}


def test_replicate_artifacts_match_golden_digests(tmp_path, capsys):
    assert main(["replicate", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == GOLDEN
