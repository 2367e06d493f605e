"""Golden artifact digests for the bundled demo scenarios.

Every artifact ``flowgate run`` writes for both demo scenarios in every mode,
the policy dump ``flowgate compile`` writes and the table ``flowgate
conflicts`` prints are pinned by their sha256. A change that alters any of
these bytes must say why and update the digest.
"""

import hashlib
from pathlib import Path

import pytest

from flowgate.cli import main as cli_main

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo"

GOLDEN = {
    ('scenario-with-ups.yaml', 'compile'): {
        "policies.txt": "6019932cd93e0c1c24257645e971e2369bc99f5a36858bffbf041fd5e2b2d31d",
    },
    ('scenario-with-ups.yaml', 'conflicts'): {
        "stdout": "ddf01e7b5d9e9de8b5f5978281957ca77ada1b905e83903a7f1d53ca2deea40d",
    },
    ('scenario-with-ups.yaml', 'mediated'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
        "latency.csv": "1a41452b35516507ed862a78589d6a03d9441ef1facf2af4dc5115dcc2756237",
        "metrics.json": "b0496b8ce311a6251412d0d5ee33f6e1d7aef6923c6913d0aa5c41d0eeab1d1a",
        "p_commands.log": "fc05dc18a05e08ada91dbe3ead9800b86712d8cad276be9bdec9fbdcbf1f4418",
        "policies.txt": "6019932cd93e0c1c24257645e971e2369bc99f5a36858bffbf041fd5e2b2d31d",
        "reported_events.log": "207effe73df6d0d3e08f40a5b373c58d0b76a8c3703d314a4de25394594062fd",
        "verification.json": "86dc6a37a08b10a707c71012e44ec19fa392122156f6fb546eb3b1ebc2e82419",
    },
    ('scenario-with-ups.yaml', 'pull'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
        "latency.csv": "7e44540cb2a979889fd091900907b4e89d66b329b66a98cde80f61b70ebb31ac",
        "metrics.json": "20496724048ade7fd0d379ef6596d6512dcbc1fb8900ee4cc6c328e8e5d94e48",
        "p_commands.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "policies.txt": "6019932cd93e0c1c24257645e971e2369bc99f5a36858bffbf041fd5e2b2d31d",
        "reported_events.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "verification.json": "88f51bf0b012cc1f9fbc4d9186a365fec6b85c7a9bce7f7b5aa26e1019a39439",
    },
    ('scenario-with-ups.yaml', 'raw'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
    },
    ('scenario.yaml', 'compile'): {
        "policies.txt": "18b89412b4e2b12455bb846ca822766d10d750ba5123f77a37b4f28cd02346d8",
    },
    ('scenario.yaml', 'conflicts'): {
        "stdout": "c893251a2d0e6d1d43afe75a3bbdca024e2b9f608c0572c3e6f3da8a08327176",
    },
    ('scenario.yaml', 'mediated'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
        "latency.csv": "1a41452b35516507ed862a78589d6a03d9441ef1facf2af4dc5115dcc2756237",
        "metrics.json": "12db136928dcb14c877c230c6757a37f2424d1c6699c01be06f8b3af18e488d9",
        "p_commands.log": "151b954665dc0e02673932093d72e5d67adc9c56041d59284bbaf490e34dd0e3",
        "policies.txt": "18b89412b4e2b12455bb846ca822766d10d750ba5123f77a37b4f28cd02346d8",
        "reported_events.log": "8a8bf0fa6c8c251b41f7ee4f7ccd4c8b3f1b961c80cac5f252cea105db00d4c5",
        "verification.json": "f50607c79eddafed34c0b812646157ea702a5084fc127a8bf060e3fdc9b00339",
    },
    ('scenario.yaml', 'pull'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
        "latency.csv": "7e44540cb2a979889fd091900907b4e89d66b329b66a98cde80f61b70ebb31ac",
        "metrics.json": "20496724048ade7fd0d379ef6596d6512dcbc1fb8900ee4cc6c328e8e5d94e48",
        "p_commands.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "policies.txt": "18b89412b4e2b12455bb846ca822766d10d750ba5123f77a37b4f28cd02346d8",
        "reported_events.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "verification.json": "88f51bf0b012cc1f9fbc4d9186a365fec6b85c7a9bce7f7b5aa26e1019a39439",
    },
    ('scenario.yaml', 'raw'): {
        "gt_commands.log": "d7872fb592d6e2cf26d9ac61aa912481b1decf38b5a3f8c9db6ae62d99c18cc1",
        "gt_pruned.log": "6675bbe1d03a4d09e16f0ddf2802f45d9ddc4c8429adda39d22847b3154d004f",
    },
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _outputs(scenario: str, case: str, tmp_path: Path, capsys) -> dict[str, str]:
    """Digests of what ``flowgate compile`` (case ``compile``) or ``run --mode case``
    writes, or of the stdout of ``flowgate conflicts`` (case ``conflicts``)."""
    if case == "conflicts":
        cli_main(["conflicts", "--scenario", str(DEMO / scenario)])
        return {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    out = tmp_path / "out"
    command = ["compile"] if case == "compile" else ["run", "--mode", case]
    cli_main([*command, "--scenario", str(DEMO / scenario), "--out", str(out)])
    return _digests(out)


@pytest.mark.parametrize("scenario, case", sorted(GOLDEN))
def test_demo_artifacts_match_golden_digests(scenario, case, tmp_path, capsys):
    assert _outputs(scenario, case, tmp_path, capsys) == GOLDEN[scenario, case]
