"""Byte-for-byte pins of the deterministic CLI outputs.

Each entry is the SHA-256 of one output: a verb's stdout, or the files it
writes (a directory's files are hashed together, each after its name).
Sampled sweeps are left out: their draws are not part of the contract.
A change to any output here must be deliberate and recorded in CHANGES.md.
"""

import hashlib

from gaussnet.cli import EXIT_OK, main
from gaussnet.core import GaussInt, format_node

PINNED = {
    "gen json k=1":
        "d855c35c7fd4bcd8e6adafeded644c3c9661a93e79666034efb47de27d9cd3cb",
    "gen json k=2":
        "ca293acb829e85631907fba6f2e6412cb93ce2ad5eeae57f1134af5a295cda24",
    "gen json k=3":
        "0e136875dca9d3755d8866def461f2b7078824f40d871aeadf401203edb40c0a",
    "gen json k=4":
        "3fc83aa0215286c69c04b39af6f42567fc46b33c99da9208c5068b3f507856b9",
    "gen json k=5":
        "ba3ef3507b1bfe27c9d2240b1392218396d5f0428e4b198b1a4ce9095387fcce",
    "tree json k=2":
        "2eab2df5cabc1822ddc5787d7fc87bb086738b711f66abbcac1379b1e9628ceb",
    "tree json k=3":
        "00811b459005bc57cce2fa09dc9b1cd581177ac19acf88f401fa155d66975d01",
    "tree json k=4":
        "23b0a793dd86ce1fbe7af4b69181cb34073c60144ec1a1dc8f8a6d0d59d356f5",
    "tree json k=5":
        "9ac5b97259010dfcb42c2f3c03f701636ada20fe3ca69afe2223ee734895e21a",
    "tree json k=6":
        "c67d3589740440e5c3fe8d3e6913778dc02dc77f5f7ac4ee0694907c8de018d8",
    "gen dot k=1":
        "dee13d4a170a3f2d67470e81bc29aaad0d301f401ef6d4fd7e6a44ed24820869",
    "gen dot k=2":
        "cbd336d68fb8dfe4768a6d8934e52cfab57d07fdb22920f88d5695a1b4e2a5c5",
    "gen dot k=3":
        "efa3769068741ba79e26a779bb4c146d723a0fde4be9391f4cda27eb3394a02a",
    "gen dot k=4":
        "7b14b5cebe5cb9d6c937a7f43de3e165245f9633450d9301dca548c2bfd2a318",
    "gen dot k=5":
        "cda1a7eaed328bb03aea1eb949e9aec954e28367925e0f6cd8449fd9baaf538e",
    "tree dot k=2":
        "d72f13449851f3ad73f1dc472c0a9ddfab0d40751ee1fb2c5e4aa1d13870fba4",
    "tree dot k=3":
        "e262feff4ed6fd2bc26e3f5720221d12ee859d0d7260164711a55d5840edc9d9",
    "tree dot k=4":
        "7eac915ed135b394415621cddf283615b1747dff700dfc870ffda20bfb47e7db",
    "tree dot k=5":
        "d0424db5e73ff9e36a32ba7b09b47a435f5b1bef3103833a50dd99a9611e1ce7",
    "tree dot k=6":
        "eb68420ce68575993b8560399ef694676547bfd17ccc102ff0ba82916acd4b1d",
    "verify k=2..6":
        "47b2684235488253c507cc78d540aae897ce907034ef75a7fb8a0c8a385a8f93",
    "route --all k=2":
        "1d21b4a6f8cdf7966e9138f6e736211a3becd48b92b054f656b6cc1bf1ba98bc",
    "route --json k=2":
        "f05528209e63ca9ddf7f730f37606f40a43e32ca295fbc9ceda0c4238dcdf03e",
    "route --all k=3":
        "d170e242d37be03b5540f7c1a9c3dad596ae38d6a6289e670357a67d2625ce7d",
    "route --json k=3":
        "818acb5b31e1674143e3f861b479956fe9d981e358f77aeff129e3496618cd7f",
    "route --all k=4":
        "f7b55947363b9d0261570ce2a977dfb21f9013011abdb6627ffd46be57ed9ddd",
    "route --json k=4":
        "e1a6d13cdb9166c42dc2a043dd0636a5568ac608e6263b0fd16045ff7e350171",
    "route --all k=5":
        "1a83e50185f1122495bc53f249a4052ceaad3bf0988d551d3dc7923324ff2d62",
    "route --json k=5":
        "4121acee533bb701d8964ec2c538a808358c2aa70a16bcbd86e099bbb722c55a",
    "route --all k=6":
        "b23be9136e6db60dd12e0a5688265b363117e761e71f239479df1363638e1898",
    "route --json k=6":
        "12bb83ac64bc6ae8564e86d799f647ee6facc6a14092d4380d82235992d20a56",
    "simulate k=5 trace":
        "5670548934e58c8f700bc4ddcc3c82a6d0d8ece40dc507dc4c497f5b9265d38a",
    "simulate k=1":
        "4908dff47d2eae7f4fd3c0b57989fd0ac9e59d9ff677eba64aad9d0f49629000",
    "sweep k=1..6 f=0..3":
        "942f505bf27f9f50f75fd5d7d359c9cd8de1f46522701e27d96298d8f82f601e",
}


def _pairs(k):
    """(source, destination) literals covering all quadrants and wraparound."""
    pts = [
        (GaussInt(0, 0), GaussInt(k, 0)),
        (GaussInt(1, 0), GaussInt(-1, 1)),
        (GaussInt(0, -1), GaussInt(0, k - 1)),
        (GaussInt(1, 1), GaussInt(-(k - 1), -1)),
        (GaussInt(-k, 0), GaussInt(0, 0)),
        (GaussInt(k, 0), GaussInt(0, -k)),
    ]
    return [(format_node(s), format_node(d)) for s, d in pts]


def _outputs(tmp_path, capsys):
    out = {}

    def cli(name, argv, files=()):
        assert main(argv) == EXIT_OK, argv
        blob = capsys.readouterr().out.encode()
        for f in files:
            for path in sorted(f.iterdir()) if f.is_dir() else [f]:
                blob += f"\n== {path.name}\n".encode() + path.read_bytes()
        out[name] = out.get(name, b"") + blob

    for fmt in ("json", "dot"):
        for k in range(1, 6):
            cli(f"gen {fmt} k={k}", ["gen", "--k", str(k), "--format", fmt])
        for k in range(2, 7):
            d = tmp_path / f"tree_{fmt}_{k}"
            cli(f"tree {fmt} k={k}",
                ["tree", "--k", str(k), "--j", "all", "--format", fmt,
                 "--out", str(d)], [d])
    cli("verify k=2..6", ["verify", "--k", "2..6"])
    for k in range(2, 7):
        for i, (s, d) in enumerate(_pairs(k)):
            cli(f"route --all k={k}",
                ["route", "--k", str(k), f"--s={s}", f"--d={d}", "--all"])
            cli(f"route --json k={k}",
                ["route", "--k", str(k), f"--s={s}", f"--d={d}",
                 "--j", str(i % 4 + 1), "--json"])
    trace = tmp_path / "trace.json"
    cli("simulate k=5 trace",
        ["simulate", "--k", "5", "--root=1-2i", "--faults=2,-i,3i",
         "--trace", str(trace)], [trace])
    cli("simulate k=1", ["simulate", "--k", "1"])
    avg, mx = tmp_path / "avg.csv", tmp_path / "max.csv"
    cli("sweep k=1..6 f=0..3",
        ["sweep", "--k", "1..6", "--faults", "0..3",
         "--avg-out", str(avg), "--max-out", str(mx)],
        [avg, mx, tmp_path / "avg.csv.meta.json"])
    return out


def test_cli_outputs_match_pins(tmp_path, capsys):
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in _outputs(tmp_path, capsys).items()}
    changed = sorted(name for name in PINNED.keys() | digests.keys()
                     if PINNED.get(name) != digests.get(name))
    assert not changed, f"outputs differ from their pins: {changed}"
