"""Pinned SHA-256 of every output file of each scenario at a tiny config.

A change that claims to alter no behaviour must leave these hashes as they
are.  A change that alters output bytes on purpose re-pins them: run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints.
The hashes depend on numpy's floating-point kernels, so the versions they
were pinned under are stored with them.
"""

import platform

import numpy as np
import pytest

from airfed.config import (
    ApbParams,
    CfoParams,
    ConstellationParams,
    E2eParams,
    ExperimentConfig,
    FrameTimingParams,
    PhyConfig,
    TrainConfig,
)
from airfed.experiments import run_scenario

PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6"}

# a 20k-sample init tone instead of 10^6 keeps every session set-up cheap
TINY_PHY = PhyConfig(m_cfo_init=20_000)

CONFIGS = {
    "frame-timing": ExperimentConfig(
        scenario="frame-timing", seed=3, trials=25, snr_db=(0.0, 10.0),
        frame_timing=FrameTimingParams(m_ft_grid=(64, 128))),
    "cfo": ExperimentConfig(
        scenario="cfo", seed=3, trials=4, snr_db=(0.0, 20.0), phy=TINY_PHY,
        cfo=CfoParams(track_updates=4, track_trials=6)),
    "constellation": ExperimentConfig(
        scenario="constellation", seed=3, trials=1, snr_db=(15.0, 30.0),
        constellation=ConstellationParams(n_symbols=5)),
    "apb": ExperimentConfig(
        scenario="apb", seed=3, trials=1, snr_db=(20.0,), phy=TINY_PHY,
        apb=ApbParams(rounds=5, payload_len=300)),
    "train": ExperimentConfig(
        scenario="train", seed=3, trials=1, snr_db=(20.0,), phy=TINY_PHY,
        train=TrainConfig(rounds=8, local_n=100, batch_size=50, heatmap_n=21)),
    # five sensors: the downlink estimate averages a K that is not a power of two
    "train-k5": ExperimentConfig(
        scenario="train", seed=3, trials=1, snr_db=(20.0,), phy=TINY_PHY,
        train=TrainConfig(n_sensors=5, rounds=6, local_n=100, batch_size=50, heatmap_n=21)),
    "e2e": ExperimentConfig(
        scenario="e2e", seed=3, trials=1, snr_db=(20.0,), phy=TINY_PHY,
        e2e=E2eParams(rounds=5, payload_len=300)),
    # at 4 dB three of these ten rounds fail once and succeed on the retry
    "e2e-retry": ExperimentConfig(
        scenario="e2e", seed=4, trials=1, snr_db=(4.0,), phy=TINY_PHY,
        e2e=E2eParams(rounds=10, payload_len=300)),
}

GOLDEN = {
    'frame-timing': {
        'frame-timing.csv': 'aece57820eda8f7cf599f4881604d1648bc8125713879b1233211087c61e8da7',
        'trace.jsonl': '3eab438e1dd3002d229af95b0be9e876e408d31dc309126cf3f01da0140c2d04',
    },
    'cfo': {
        'cfo.csv': 'e88e79faff002aac83b2716754ce3e620ebb9ad4717a0f47480ad84e5a291e1a',
        'cfo_tracking.csv': '289f0325f7aeca4238d9beac25d5acf775d37692bd05d25d9931817417a1673f',
        'trace.jsonl': '611130621a40a03a76c337447fe1309e3a4e348ef3f133c14e850c490915d466',
    },
    'constellation': {
        'constellation.csv': '6e1822bd91a92e187c960630d606eda7f256a5d2d22f6448a83723ec376d7829',
        'constellation_summary.csv': 'ebf7908cf1d902b918de96416b00e295bf0ec06554234d9c8e2a4346b4fe21f0',
        'trace.jsonl': '73acbf222dc4a1b0c736a1813b598106e3e8057950a1ea6c94c1e9cdd6946e42',
    },
    'apb': {
        'apb.csv': '2ad27fcc50b54170a5b470e58e795894103c81a19781a1ccbe095befae5ca9bd',
        'apb_cdf.csv': 'b22e0ae273b44e777759d7799f0dc897511be1d0e0749e18934cf334570ab973',
        'trace.jsonl': 'bc0e18cc76fc030e0414140b86d19e10c039aea03c23c32923d2bd001f2d0723',
    },
    'train': {
        'model.json': '2600a059a5349693873b089cd64f211270028248c91f26a9a4fa276b7cde4fc4',
        'trace.jsonl': '29a5e744be3f4b2bbb238b771e5b45da30b63f5fa0c95110baedb2a69eeff3ed',
        'train.csv': '438eb85f89b3c21eeaf41aeb444529c6a5a408d4830967f4a02ed1d25a0dfc03',
        'train_dataset.csv': 'a8283c37e2d9c6479839634cfc8360138865c7ae78bcab3ada67c5b607b4d87b',
        'train_heatmap.csv': '7521b1b86ca9422ca21ddc43c796e46eddd2ca6f7bb456864bfa21166a7f535d',
    },
    'train-k5': {
        'model.json': 'fb75962e9482ec601dfab8ce907b630cf691ffaa707185718b1c4e578403abd2',
        'trace.jsonl': '0c223e76d4ed25ccb76b4668f638d3912eda90792d830fb38687c20e9a1d18ee',
        'train.csv': '5a91f5006a4870d68ed0b7fa3858dfcf68f25aae95e40c9802af9b4e25ce2dba',
        'train_dataset.csv': '657efe9a8986d991b997c68a5307e2ebd7be0932ac43c09561f5edee45485131',
        'train_heatmap.csv': 'a6e537e7d98b2ce8b1ac42004e4aaf228ac55fc286f1a3c23ea27823cdc87bd3',
    },
    'e2e': {
        'e2e.csv': '1254f9bae560f83fa985250fb7259fea25c5172b5734799906baa064ed4161f5',
        'trace.jsonl': '036ceb726de4b9f6cff8c4157917fa78f958f093a5d85316366fa056af8488e6',
    },
    'e2e-retry': {
        'e2e.csv': 'd3e01e640d57c4ded15a209a39b46aab1522ce9c9faa7d4c1be60d09b0db2fe1',
        'trace.jsonl': '0cf05de2cada2e06490f45035ad36facf22b96f2578667e60f1016be2b4df591',
    },
}


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_golden_output_hashes(tmp_path, case):
    outputs = run_scenario(CONFIGS[case], out_dir=tmp_path)["outputs"]
    if outputs == GOLDEN[case]:
        return
    running = {"python": platform.python_version(), "numpy": np.__version__}
    note = ("" if running == PINNED_VERSIONS else
            f"; pinned under {PINNED_VERSIONS} but running {running}, "
            "so the difference may come from numpy or Python, not from the code")
    changed = sorted(k for k in set(outputs) | set(GOLDEN[case])
                     if outputs.get(k) != GOLDEN[case].get(k))
    pytest.fail(f"{case}: output bytes differ from the pins in {changed}{note}")


if __name__ == "__main__":
    import tempfile

    print(f"PINNED_VERSIONS = {{'python': {platform.python_version()!r}, 'numpy': {np.__version__!r}}}")
    print("GOLDEN = {")
    for name, cfg in CONFIGS.items():
        with tempfile.TemporaryDirectory() as out:
            outputs = run_scenario(cfg, out_dir=out)["outputs"]
        print(f"    {name!r}: {{")
        for file, digest in sorted(outputs.items()):
            print(f"        {file!r}: {digest!r},")
        print("    },")
    print("}")
