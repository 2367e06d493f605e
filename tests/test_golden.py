"""Golden artifact digests for the bundled demo and mini scenarios and the four testbeds.

Every artifact ``flowgate run`` writes for each bundled scenario in every mode,
the policy dump ``flowgate compile`` writes and the table ``flowgate
conflicts`` prints are pinned by their sha256, and so is every artifact of a
mediated run of each testbed. A change that alters any of these bytes must
say why and update the digest.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from flowgate import synth
from flowgate.cli import main as cli_main
from flowgate.dsl import format_trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEMO = SCENARIOS / "demo"

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

# The mini home of tests/conftest.py, with one rule of each numeric and
# pass-history shape that no testbed has.
MINI_GOLDEN = {
    "compile": {
        "policies.txt": "440ba41b2cdfe04f5c0fbf1b14c4ad6becbb1cc2435b5cb61f76e78eb93fde56",
    },
    "conflicts": {
        "stdout": "e0194b4e67ab9b28eaa87bd37bec765c687e65fd1c11da49d2531b5dab965125",
    },
    "mediated": {
        "gt_commands.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
        "gt_pruned.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
        "latency.csv": "bdbab0f980e0a97c8246a313ea1b02d39d4fd0d68f18f7a035cbab2fecc5addb",
        "metrics.json": "c9bd406fd8b60245beba82867cbe07104b68a651612e9f3aeb1695499c90c1ed",
        "p_commands.log": "f21e4482b009792cb6bce6c69f8e5d424c8d9123b2b8e396c681ad60500b96b4",
        "policies.txt": "440ba41b2cdfe04f5c0fbf1b14c4ad6becbb1cc2435b5cb61f76e78eb93fde56",
        "reported_events.log": "b65fe8acd76e4707670878161bfef3f2d67e2903c719301d6689a85214dd6871",
        "verification.json": "27983dcdbf0eaebb32fabecb3b7b9508f24370e46f75fec3fcfc0b588219a815",
    },
    "pull": {
        "gt_commands.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
        "gt_pruned.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
        "latency.csv": "7e44540cb2a979889fd091900907b4e89d66b329b66a98cde80f61b70ebb31ac",
        "metrics.json": "33ee9a71e69eb4cfea6ab43d764d244c0da84107085ee013892526a0f188da8b",
        "p_commands.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "policies.txt": "440ba41b2cdfe04f5c0fbf1b14c4ad6becbb1cc2435b5cb61f76e78eb93fde56",
        "reported_events.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "verification.json": "3264feecfff78efbef6e90036263d8add77e2456ff6cd5166ffffc3925f5b4dd",
    },
    "raw": {
        "gt_commands.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
        "gt_pruned.log": "8cfd264777510002206746083432cbac9cada5c7fdc78158f02a3955656ef56e",
    },
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _outputs(scenario: Path, case: str, tmp_path: Path, capsys) -> dict[str, str]:
    """Digests of what ``flowgate compile`` (case ``compile``) or ``run --mode case``
    writes, or of the stdout of ``flowgate conflicts`` (case ``conflicts``)."""
    if case == "conflicts":
        cli_main(["conflicts", "--scenario", str(scenario)])
        return {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    out = tmp_path / "out"
    command = ["compile"] if case == "compile" else ["run", "--mode", case]
    cli_main([*command, "--scenario", str(scenario), "--out", str(out)])
    return _digests(out)


@pytest.mark.parametrize("scenario, case", sorted(GOLDEN))
def test_demo_artifacts_match_golden_digests(scenario, case, tmp_path, capsys):
    assert _outputs(DEMO / scenario, case, tmp_path, capsys) == GOLDEN[scenario, case]


@pytest.mark.parametrize("case", sorted(MINI_GOLDEN))
def test_mini_artifacts_match_golden_digests(case, tmp_path, capsys):
    assert _outputs(SCENARIOS / "mini" / "scenario.yaml", case, tmp_path, capsys) == MINI_GOLDEN[case]


# Each testbed's mediated run as the homes-7d benchmark workload writes it:
# trace seed 11, 7 days, at least 12,000 events, engine seed 11, L2 250 ms.
TESTBED_GOLDEN = {
    "t1": {
        "gt_commands.log": "b9a1e3239b643a969fe27f717b82f2c8f4e29500ba970ae6e07165a8df540057",
        "gt_pruned.log": "32a6fa810d722fc47bec6d16aefd9e9598728cc7ec0c3fb310ea1b2eb24f1314",
        "latency.csv": "2d8939b0360e00302add32081a8b4c2856de464db03ce46f33a0394293fc90d9",
        "metrics.json": "cc7d6fe1a8cb5055435638af9fb95617e06bea8662e9194fb90d427f5fb89c29",
        "p_commands.log": "9f4e26089cbc3f4c757ffa0da4c51bed21ca57a7af6e83442246842d7ac54b51",
        "policies.txt": "18b89412b4e2b12455bb846ca822766d10d750ba5123f77a37b4f28cd02346d8",
        "reported_events.log": "d759b66498be99e9eb8804f4076c5d4cddfdb04291a3651d9faeb7e23f6a5019",
        "verification.json": "8f29a0fe691b7ef18cdcde482ff2e7f830fbb8f888defa21804f173de98debb8",
    },
    "t2": {
        "gt_commands.log": "8e4e5b11f970355a7ae4408813f2d6d68280385874255dfc45e4a5a8bf7b5820",
        "gt_pruned.log": "71bf3c69c27df7ee9a9494085b395e3c21c689369c236ee1ee82833af84476d4",
        "latency.csv": "9d920403007713cb4d18030a914f2f300eae2e4268fc0f5e2110ded3ce0b200f",
        "metrics.json": "451c18553f11501ccad3fe5c3a9c1c295b4f537cd27c6aabd648212533e67b8d",
        "p_commands.log": "1898a062100f1e1cce114344bdc8940a6926b518ac74746d8145bd98cf46b561",
        "policies.txt": "00dc5e60222d8e2c211bd5fcd7d561735607f930b0f651bbd2419168800907a0",
        "reported_events.log": "2b61afd5009a35c99bc1a438edfa5766427e6d25ccc6e10e356649dd17c5debe",
        "verification.json": "757819306a56a1b2e28e148c03503328638763e498a0edd547d73b5d9b525966",
    },
    "t3": {
        "gt_commands.log": "b36069a433f0a98e40d7035b17aae44fdd791ecd57fc952e176bc07e6fbdea22",
        "gt_pruned.log": "381b6649390c7e79dace30e7f5e5fa4ad23e0513232d07e906a151988030bc63",
        "latency.csv": "71ca4969ac1b0bf00c981107de784a8536b6d87d0a531d343b04555315ec9702",
        "metrics.json": "815c4324883246da2e660f7fd94a235cdb449b36e7a4c0fd500b07d8acfde3ab",
        "p_commands.log": "e6133b66418d17fb28d5a7e1d56c7133fe8454858c453abed76ac4378008d8bd",
        "policies.txt": "59bb8bf45634cef68aeffe66e378c8493eb2426a6ade43fe1a19b7800066a791",
        "reported_events.log": "5d0566cec7a58fad14a937b1a5a7bfebbc212237cd749d90d6033c66ad1d0aac",
        "verification.json": "3273f70d4f4d23f302ef97c2aa6d3d9d96b73d669fb6369baf0f78ea810df814",
    },
    "t4": {
        "gt_commands.log": "4197547741e055badc961342f434d56e2e1343e2f0e52009191fd22d1fafe46e",
        "gt_pruned.log": "bbafb871e1b61d5a99f6d77b120dadb1432f5d9126a0e5c98ee22244b3510fd8",
        "latency.csv": "b60a2dd188759335a2efba9140863f7248ad3ab33b57548ee39b7d0ae4b071e1",
        "metrics.json": "ab16463f12ea83174ed9e3ab319dc45ded87f75a4c3c1fd3fe021a42120542d6",
        "p_commands.log": "5c80555c4af29d49f1f7a4c0b5fd2b1645e68aa51223d97c52ee7268c102d26c",
        "policies.txt": "9c3c33ce4b74e13703d7810fbd3a880721b30fd708321dd0564a0adc122cc101",
        "reported_events.log": "bdf4a53eeab0bdb6f37ac88a29c715c558d714f60f10d582fbf0b8d795fb5c71",
        "verification.json": "fb5c7ce77f17a45c747725a893484e3be6527690579355ce9c5d5097c5ca7f1e",
    },
}


@pytest.mark.parametrize("name", sorted(TESTBED_GOLDEN))
def test_testbed_artifacts_match_golden_digests(name, tmp_path):
    tb = synth.testbed(name)
    trace = synth.generate_trace(tb.registry(), seed=11, days=7, events_target=12_000)
    (tmp_path / "home.yaml").write_text(yaml.safe_dump(tb.home))
    (tmp_path / "rules.dsl").write_text(tb.rules_text + "\n")
    (tmp_path / "trace.log").write_text(format_trace(trace))
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump({
        "name": f"{name}-7d", "home": "home.yaml", "rules": "rules.dsl", "trace": "trace.log",
        "mode": "mediated", "engine": {"seed": 11, "l2_ms": 250},
    }))
    out = tmp_path / "out"
    cli_main(["run", "--scenario", str(tmp_path / "scenario.yaml"), "--out", str(out)])
    assert _digests(out) == TESTBED_GOLDEN[name]
