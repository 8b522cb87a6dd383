"""Golden program fingerprints: the compiler's output, pinned.

Every zoo network compiled under the three paper Bit Fusion configurations
(Eyeriss-matched, Stripes-matched and the 16 nm GPU-scaled one) at batch
sizes 1 and 16 must hash to the digest recorded here.  The fingerprint
covers each block's binary image, layer, tiling plan, loop order and fused
followers, so any change to what the compiler emits — instruction choice,
encoding, tiling search, plan resolution — shows up as a mismatch.  A
change that *means* to alter the emitted programs updates these digests in
the same commit and says why.

Each program is compiled twice: by a fresh compiler searching every tiling
itself, and through the evaluation session's tiling memo shared across all
the networks of one configuration (the path reports and sweeps take).
"""

from __future__ import annotations

import pytest

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.isa.compiler import FusionCompiler
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import make_plan_resolver

_GOLDEN = {
    ("eyeriss_matched", 1, "AlexNet"): "4a70bf677b8e5a0634d9d96471df0ee317803194930ebf90f9b07a74496c7c09",
    ("eyeriss_matched", 1, "Cifar-10"): "e0b7020084cf704ce57caaed7ac0cd232f2a868c31dc2e97059670cf260c97ff",
    ("eyeriss_matched", 1, "LSTM"): "66f8be2800c4426ec1f4c58fcc9cae3aea3033764b8388af677d447114f10d23",
    ("eyeriss_matched", 1, "LeNet-5"): "7a200c5b20fc676d6bfd9598ab7d3cd2fea31f1d6c4d41d95923e0b0be974bf1",
    ("eyeriss_matched", 1, "ResNet-18"): "33163571304b2cc97f47af280780ded22797434dd2cef9d04364c653d0a6b9a3",
    ("eyeriss_matched", 1, "RNN"): "90bfe16b22eac3a126178847c490ffa4d4707c612b74b189a5f6fc580da37c68",
    ("eyeriss_matched", 1, "SVHN"): "270492e745d0566bcc6c4b662437d6277a3167ccdf6342241fa99bfdea49b0b3",
    ("eyeriss_matched", 1, "VGG-7"): "68b163fd6cbf06d8208b6640df292f34a34afd17fd108ff43ea7e38ccf3e3c64",
    ("eyeriss_matched", 16, "AlexNet"): "b187ba48d033916f40a7340279bf1c4c01c2c65cf287f560f506931e22898ac9",
    ("eyeriss_matched", 16, "Cifar-10"): "3de511d0666e7940effbbc9b233bb90cd0b3fe920c7c5fc6831d4ceec9aa63f9",
    ("eyeriss_matched", 16, "LSTM"): "3f7e3da2f4505be2cdbdc4aa643e0eee9f5065bfc37cf384611963ce567661f5",
    ("eyeriss_matched", 16, "LeNet-5"): "cf12e8250e40ade6fab61f6324186e433587c9c043fc7bda8f8b869a076d2782",
    ("eyeriss_matched", 16, "ResNet-18"): "37c51397ce0b58844e42ae68bb9ae152fc612101506453f08979d20c1c4b0b62",
    ("eyeriss_matched", 16, "RNN"): "612e24184f63cddb0e91eb3c0bd783c7e433b0d730777132fa8e67ab4bfedf5f",
    ("eyeriss_matched", 16, "SVHN"): "70ca0d52a39b90f6f4d843a3adcfe38f6e2d467ce91c611ab0b912432bc19fe1",
    ("eyeriss_matched", 16, "VGG-7"): "dcde98f5df1247ebfa363ba66e35e787de559723ecc40918aadc1f8fbd53f37e",
    ("stripes_matched", 1, "AlexNet"): "6f30885b72b5baf37620721d92f4774a87d0f5cd81ab6b303944728fd386c9b8",
    ("stripes_matched", 1, "Cifar-10"): "468bb27da86a2fcfcca77f1623ada88322ea8f2fb934c687f42c1811d37c84a7",
    ("stripes_matched", 1, "LSTM"): "c94cc6796b08d128f7de9d9188fd47393c780935bce797273633bfd088351d4f",
    ("stripes_matched", 1, "LeNet-5"): "c6b615d368e75bef2f6038d899f1aa9721018a08e193d775d21cbe8f018399a6",
    ("stripes_matched", 1, "ResNet-18"): "7d9c7ff975e51260e75ffb3efc3d603b227aff0295e0504890c86018364efbca",
    ("stripes_matched", 1, "RNN"): "b763b53e3ddc61fbc32bbe0b39ded5dcea14917479b0561c73b44a9207f6006a",
    ("stripes_matched", 1, "SVHN"): "53d5f54017e3e6d4e3f35f7a1fbd4fc4c3140065e30eff34ba2fa5be077b1ef4",
    ("stripes_matched", 1, "VGG-7"): "7181958e24d6a00bcbd18abbfb6e56248906264ea73c81e2bf2a7494ebc5641d",
    ("stripes_matched", 16, "AlexNet"): "2ec33bafbbf8511f57e91e4ee74469e49b1e6a0a78aab108d192e4e532eb7a60",
    ("stripes_matched", 16, "Cifar-10"): "eddaddf3a9d0c3f3c3124ff4f33c612cd5f1163b0a7d1b631c03ee2fe3b73e9d",
    ("stripes_matched", 16, "LSTM"): "074a01593289cbe565951fb8ad3609e5a7e9cee5104c22201965955f686efa7d",
    ("stripes_matched", 16, "LeNet-5"): "e30339e215495d00fb6442ff76a2e1f36aa3a6893f0819420232321dc4a2a423",
    ("stripes_matched", 16, "ResNet-18"): "b379444bb4ebd62ac73bdb8e1fe890e8dae76df9532bcf3ba7a4af85671f7a17",
    ("stripes_matched", 16, "RNN"): "16c8159c2115a2cc17c1febb03a7d0e581d9ad294f47e09fe9cff06a0c96a1e5",
    ("stripes_matched", 16, "SVHN"): "dd96a9a9c261c68b0e8999514bff6db84621e0e68cccd890777900edc47bded0",
    ("stripes_matched", 16, "VGG-7"): "14dbc22d6c010017509d2f3201ec9b1936f874963520bea82944fc1e8d703a93",
    ("gpu_scaled_16nm", 1, "AlexNet"): "65dc1b0a1d7fda2f811e3c0d51541577bc8068d2ad82226445212b15544d03f8",
    ("gpu_scaled_16nm", 1, "Cifar-10"): "a67a8245c492b52b39766512362f188ff98943f70d1c0f8bf74b40ace8560ec7",
    ("gpu_scaled_16nm", 1, "LSTM"): "6b6a057db79deec15028745cfa83dfe3343580d097a18f7249934ae2b517d2e4",
    ("gpu_scaled_16nm", 1, "LeNet-5"): "c6b615d368e75bef2f6038d899f1aa9721018a08e193d775d21cbe8f018399a6",
    ("gpu_scaled_16nm", 1, "ResNet-18"): "135831a3ce2b637b97111f2d4a4a99440c7789588f68ea27be1411d5b4863f39",
    ("gpu_scaled_16nm", 1, "RNN"): "4a6a754f8249dcd955e6cbedc7ce5fc1530780fffe6fdfce92431a7e90719e7f",
    ("gpu_scaled_16nm", 1, "SVHN"): "6758f7520f17efa8e44b924acaac513920ae860adb5584061866c21b30ab7681",
    ("gpu_scaled_16nm", 1, "VGG-7"): "07f2049e385885f9af7e0af3f11a9084a9b4d1c673fe35e41c3eb93ebc17049d",
    ("gpu_scaled_16nm", 16, "AlexNet"): "979db23977bbe74c29f5ebb7bcea2df6c461bef8e05112ffa39fb01cf38237dd",
    ("gpu_scaled_16nm", 16, "Cifar-10"): "0a37a50581f5de558a509be956ec9f160a7aeb24a098c73e6238b1d966a8ed90",
    ("gpu_scaled_16nm", 16, "LSTM"): "2994c2d4cd7f61e3bca26801213ea65048147bd191433f560abac90cf73802f9",
    ("gpu_scaled_16nm", 16, "LeNet-5"): "90b698f44157e11e2a6843c9ba7f29b0b5290f630db6139638ad9c10cbcbb454",
    ("gpu_scaled_16nm", 16, "ResNet-18"): "781a4ab69d85d35c344e9b1b46656b7223fd50e8d6743cfbed0b84a111a5d662",
    ("gpu_scaled_16nm", 16, "RNN"): "22d7c61b10f8099c0ac87e5eedb7472eee6dc2de42409f592c1ec63e5e18a388",
    ("gpu_scaled_16nm", 16, "SVHN"): "8966ace27f3d8a3d4748118af9777365844b4dec269a3197bf8a9807eab9bb34",
    ("gpu_scaled_16nm", 16, "VGG-7"): "c1a4c9cb7dedbfde0b984e7a06ceeb787ff7238c4ce0ec45d0e0062ebf945e53",
}

_CASES = sorted({(config, batch) for config, batch, _ in _GOLDEN})


def test_golden_table_covers_the_zoo():
    assert {name for _, _, name in _GOLDEN} == set(models.BENCHMARKS)
    assert len(_GOLDEN) == len(_CASES) * len(models.BENCHMARKS) == 48


@pytest.mark.parametrize("config_name, batch", _CASES, ids=lambda value: str(value))
def test_program_fingerprints_match_golden(config_name, batch):
    config = getattr(BitFusionConfig, config_name)()
    resolver = make_plan_resolver(config, ResultCache(), CacheStats())
    for name in models.BENCHMARKS:
        network = models.load(name)
        expected = _GOLDEN[config_name, batch, name]
        fresh = FusionCompiler(config).compile(network, batch_size=batch)
        assert fresh.fingerprint() == expected, name
        memoized = FusionCompiler(config, plan_resolver=resolver).compile(
            network, batch_size=batch
        )
        assert memoized.fingerprint() == expected, name
