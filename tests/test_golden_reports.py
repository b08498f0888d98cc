"""Byte-identity of every exact CLI report.

Each command runs in-process with the report directory pointed at a fresh
temporary directory; its exit code and the SHA-256 of the one report it
writes must match the recorded values.  A refactor of the exact layer that
changes any canonical form, any verdict, or any byte of a report fails here.
The floating-point ``numcheck`` report is left out: its residuals are not
part of the exact contract.

The same commands' printed text is pinned too: the SHA-256 of stdout, less
its `report written:` line, whose path names the temporary directory.

The digests were recorded before the exact term maps and matrices moved
onto shared base classes, and the stdout digests before `SquareMatrix` was
folded into `DiffOp`.  When a report or its printed text changes on
purpose, regenerate them and record why in CHANGES.md.
"""

import hashlib
import json

import pytest

from galkappa import report
from galkappa.cli import main

# command line -> (exit code, SHA-256 of the report file)
GOLDEN = {
    "algebra verify abelian4": (0, "ce024c9747f27563c50220268e729dfd09043c6ca74395737a9c3ff1bb03a12e"),
    "algebra cohomology abelian4": (0, "9b1d8d428d7fae9bb8fb5cebc1add3931f2198a9cfe9b24e22e0f8df2a2b2829"),
    "algebra verify galilei_1d": (0, "c8c32f90cd53d07c01742e1a7f6a6e0e55a864d15bce137c94276080cea5a12f"),
    "algebra cohomology galilei_1d": (0, "97bcb8cd6e8579f404719850c6b12a309e24df08cfc227aa475dd824c3885e59"),
    "algebra verify galilei_3p1": (0, "50cd7e25b18ab4d7c7436c4ba830191ead6733e19278d6978e8a085ba2ee07f9"),
    "algebra cohomology galilei_3p1": (0, "ecf3273bc157b1e834685c7a78ab9d2334a207661ddf1289429dc44a45303ee4"),
    "algebra verify planar_galilei": (0, "69c555defbd7e6299c67ec84c182929c0004e9f1a7c83936c6c0bef34d3328ad"),
    "algebra cohomology planar_galilei": (0, "96a59831d17c5493506c2acb778194bd7f8f7ca06484a0b54b4bcf5028d7a4fc"),
    "algebra verify planar_galilei_literal": (0, "d3099bd442874d925266e71bd6e1444a95d18213aebdb382cf2eafe7d42dd3fc"),
    "algebra cohomology planar_galilei_literal": (0, "8f86f004090395c357d8a76d2ad38bc1bfcbee886eedf881f0487a58f5cee29c"),
    "algebra verify planar_galilei_mass": (0, "e516af9d9ad4dbf2f8b968cd58037ff7786f026e26a2f94fc30473aa717b7362"),
    "algebra cohomology planar_galilei_mass": (0, "308693934773d56d2fa80aadd23086346fa46793acf00ff810e77e3111dd80db"),
    "algebra verify so3": (0, "5aad9b4b4f5a5226c652571ce86cc61ec671a30c13b574605d09ffe727f6eb3e"),
    "algebra cohomology so3": (0, "f4744d0e1ccf161673d991bddc7d4aa4b9f9f7581f946c672a053e3c9820cb1e"),
    "realize schrodinger --spin-s 1": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s 1 --shift c": (0, "d345d33c665383d2ed80758137f626638645ca93c66d16d264e750d46de48578"),
    "realize schrodinger --spin-s 1 --lambda lam": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s 1 --shift 3/2 --lambda 1/2": (0, "703001bf3cbb74a68f04b63c5476f1c2a3d02b795e5ce2330834aab71bfdc68d"),
    "realize schrodinger --spin-s 1 --strict-literal-table": (1, "3160ef169e84b23a5544c1da334df566c7af1f8d1a91c7cbaed48191b8caf101"),
    "realize schrodinger --spin-s -1": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s -1 --shift c": (0, "d345d33c665383d2ed80758137f626638645ca93c66d16d264e750d46de48578"),
    "realize schrodinger --spin-s -1 --lambda lam": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s -1 --shift 3/2 --lambda 1/2": (0, "703001bf3cbb74a68f04b63c5476f1c2a3d02b795e5ce2330834aab71bfdc68d"),
    "realize schrodinger --spin-s -1 --strict-literal-table": (1, "3160ef169e84b23a5544c1da334df566c7af1f8d1a91c7cbaed48191b8caf101"),
    "realize levyleblond --spin-s 1": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s 1 --shift c": (0, "5782295440fe3babefad557396d0fd1de9517bb6b266881f940bcea1838bb8f8"),
    "realize levyleblond --spin-s 1 --lambda lam": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s 1 --shift 3/2 --lambda 1/2": (0, "c809df0c35c55f8966a28cc74b94bed9e208e9e7f79202eb8ff05918203c82a8"),
    "realize levyleblond --spin-s 1 --strict-literal-table": (1, "696eb06fb59c853c228e721e8f1d9765c8d2c8e8f1bc5c71b492d206d690875b"),
    "realize levyleblond --spin-s -1": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s -1 --shift c": (0, "5782295440fe3babefad557396d0fd1de9517bb6b266881f940bcea1838bb8f8"),
    "realize levyleblond --spin-s -1 --lambda lam": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s -1 --shift 3/2 --lambda 1/2": (0, "c809df0c35c55f8966a28cc74b94bed9e208e9e7f79202eb8ff05918203c82a8"),
    "realize levyleblond --spin-s -1 --strict-literal-table": (1, "696eb06fb59c853c228e721e8f1d9765c8d2c8e8f1bc5c71b492d206d690875b"),
    "realize multispinor --spin-s 1": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s 1 --shift c": (0, "0168f12fb128dfd3918f365fba075437ecdf8df61998be333d94edf9d4f55809"),
    "realize multispinor --spin-s 1 --lambda lam": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s 1 --shift 3/2 --lambda 1/2": (0, "77fe32c5f92c4ec8fcbe6eff95b51d90b92879477bc3bb4bd08e8fc6a33226c2"),
    "realize multispinor --spin-s 1 --strict-literal-table": (1, "bb8131e22a20c353eff72c7ab286619c4733fae7bd0096c4fc363ebd7e0dcb9f"),
    "realize multispinor --spin-s -1": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s -1 --shift c": (0, "0168f12fb128dfd3918f365fba075437ecdf8df61998be333d94edf9d4f55809"),
    "realize multispinor --spin-s -1 --lambda lam": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s -1 --shift 3/2 --lambda 1/2": (0, "77fe32c5f92c4ec8fcbe6eff95b51d90b92879477bc3bb4bd08e8fc6a33226c2"),
    "realize multispinor --spin-s -1 --strict-literal-table": (1, "bb8131e22a20c353eff72c7ab286619c4733fae7bd0096c4fc363ebd7e0dcb9f"),
    "fieldcheck conservation": (0, "b26b9b9b0f9f4eeccee3d86255516774242892e0ededc3e1d5a5cb3456b17e42"),
    "fieldcheck conservation --variant literal": (1, "e18843f22bdd7c356c84e102083b3e67a30841532a6ed9d06795a24303128f35"),
    "fieldcheck conservation --index 2 --spin-s -1": (0, "d4e7f7f93e0f350f7f36dc197064706b2f4ed30a4280eb4f9d16630f08eea80c"),
    "fieldcheck conservation --variant literal --index 1 --spin-s 1": (1, "93af96f2a1a046b9d9af1942436a75d9c7a25820b2e1588cd6b2945f407f3a74"),
    "fieldcheck boost": (0, "5c7c50087be8716913a4911b9d30fe61f5dafb4bc74382a729068f473769e0b6"),
    "fieldcheck rotation": (0, "eabd168158180968901848a01b7b33dbbdb65c0828268ba583be9b82987d1f8b"),
    "fieldcheck multispinor-eqs --rank 1": (0, "b63d92a5ff83e014ccd605b38e39da1c2d7317c6a9d799b35fbc78e00b1f0d92"),
    "fieldcheck multispinor-eqs --rank 2": (0, "ca22a9192fe2410bf57910e6bd9a505caa04447a10984d03f879638b570e217b"),
    "fieldcheck multispinor-eqs --rank 3": (0, "bfe3efea737f301087097da04f67e490ed98fab13af3261ab7f62ab7e0ca77a6"),
    "fieldcheck multispinor-eqs --rank 4": (0, "6c259557c34ddef1366707bd83f52c7b40afa6bdea2b8c398e7cf5fbe63c1a82"),
}

# command line -> SHA-256 of its stdout without the `report written:` line
STDOUT = {
    "algebra verify abelian4": "d3b4bc03b6650ad2e025199c192400b122a65ae01d9e89ac9bc8bec82bb9fcf5",
    "algebra cohomology abelian4": "540e3992435a0015a14ba718ca1b18707c8175550f87de7aa4736e90a61e679b",
    "algebra verify galilei_1d": "d30eb2b3efe0b35c838482e99228f1f01938f4694fcf98c625cfad114d427c70",
    "algebra cohomology galilei_1d": "8072bcc6acdfd00952e598d9db5800827a7e5b6268a685234e74311fbbde5e98",
    "algebra verify galilei_3p1": "05bc2c526c1514e61d4b3531d2764eb44e08d4b86fe01e1b76a57dd45c28a64b",
    "algebra cohomology galilei_3p1": "233418cd592c9e669f4e8cbc88430868d34fabbaca2cf1f212ba161b8ee001c3",
    "algebra verify planar_galilei": "448e9fc86ff529a843f7cc21bd9f8974b5c669c2b34cd862f4548cb2298b5c09",
    "algebra cohomology planar_galilei": "e17facce1107476a93d534cd8f9a42adbc260c9a6aede63154c8e82ac5926838",
    "algebra verify planar_galilei_literal": "448e9fc86ff529a843f7cc21bd9f8974b5c669c2b34cd862f4548cb2298b5c09",
    "algebra cohomology planar_galilei_literal": "16a3049474a4f7da7f59906fea68fc789ef06fcd346ad871d5804f127b56b150",
    "algebra verify planar_galilei_mass": "780fd955fabed27cfbae785d4b12a26c22626eae842ba67d23ebd414e5520be3",
    "algebra cohomology planar_galilei_mass": "836241c993e390c6aa52b64e6c89716ef1f94b91faa3cc6e2bc21025ffbb892c",
    "algebra verify so3": "d30eb2b3efe0b35c838482e99228f1f01938f4694fcf98c625cfad114d427c70",
    "algebra cohomology so3": "a4697ad5202d621e94044bf51bce289870ea08de8a103debe67e5a002de7b31e",
    "realize schrodinger --spin-s 1": "9268fb5a890d12d5f8d1cab9adb5c464f071528e68626214f1a8b5fe8c192cf9",
    "realize schrodinger --spin-s 1 --shift c": "136d66dacb54fbb8dff5bf20e8f4c5cb92adb8ca7becf63def33fb610ee9ed36",
    "realize schrodinger --spin-s 1 --lambda lam": "9268fb5a890d12d5f8d1cab9adb5c464f071528e68626214f1a8b5fe8c192cf9",
    "realize schrodinger --spin-s 1 --shift 3/2 --lambda 1/2": "f6646ef13515e356b4634029903c24ed7420d03c27751a3e9cfb34fa5e07336f",
    "realize schrodinger --spin-s 1 --strict-literal-table": "abcaf37897f39587b10fd3495501a65317f38f856241a1155bdbc2cc2b17105e",
    "realize schrodinger --spin-s -1": "9268fb5a890d12d5f8d1cab9adb5c464f071528e68626214f1a8b5fe8c192cf9",
    "realize schrodinger --spin-s -1 --shift c": "136d66dacb54fbb8dff5bf20e8f4c5cb92adb8ca7becf63def33fb610ee9ed36",
    "realize schrodinger --spin-s -1 --lambda lam": "9268fb5a890d12d5f8d1cab9adb5c464f071528e68626214f1a8b5fe8c192cf9",
    "realize schrodinger --spin-s -1 --shift 3/2 --lambda 1/2": "f6646ef13515e356b4634029903c24ed7420d03c27751a3e9cfb34fa5e07336f",
    "realize schrodinger --spin-s -1 --strict-literal-table": "abcaf37897f39587b10fd3495501a65317f38f856241a1155bdbc2cc2b17105e",
    "realize levyleblond --spin-s 1": "9ebf8223887a1f1c655653952adcf6982442fed453c03d0ca33576cec7d8a667",
    "realize levyleblond --spin-s 1 --shift c": "206216b42481dc2a51ec13c0750dc9187e639d3174196e26f5ac8afd906144a1",
    "realize levyleblond --spin-s 1 --lambda lam": "9ebf8223887a1f1c655653952adcf6982442fed453c03d0ca33576cec7d8a667",
    "realize levyleblond --spin-s 1 --shift 3/2 --lambda 1/2": "2500e63ef23cb827c430cadbb783157ea52112d91db951e3c3203ad150e4bec9",
    "realize levyleblond --spin-s 1 --strict-literal-table": "3b7da6b5c48cc0b63e4310567d3c740e4432754275d023c994362a83949c49f5",
    "realize levyleblond --spin-s -1": "9ebf8223887a1f1c655653952adcf6982442fed453c03d0ca33576cec7d8a667",
    "realize levyleblond --spin-s -1 --shift c": "206216b42481dc2a51ec13c0750dc9187e639d3174196e26f5ac8afd906144a1",
    "realize levyleblond --spin-s -1 --lambda lam": "9ebf8223887a1f1c655653952adcf6982442fed453c03d0ca33576cec7d8a667",
    "realize levyleblond --spin-s -1 --shift 3/2 --lambda 1/2": "2500e63ef23cb827c430cadbb783157ea52112d91db951e3c3203ad150e4bec9",
    "realize levyleblond --spin-s -1 --strict-literal-table": "3b7da6b5c48cc0b63e4310567d3c740e4432754275d023c994362a83949c49f5",
    "realize multispinor --spin-s 1": "2dab321206a15f964a55963ebc7f8ebb868532ab2c59aa8ebf52b3246dc63658",
    "realize multispinor --spin-s 1 --shift c": "2081ce5aafb8e22e50fe222a4b358c934e8053a896d43c5022feebd06223589e",
    "realize multispinor --spin-s 1 --lambda lam": "2dab321206a15f964a55963ebc7f8ebb868532ab2c59aa8ebf52b3246dc63658",
    "realize multispinor --spin-s 1 --shift 3/2 --lambda 1/2": "149b7c4b7063f21eda0ef8bc4bfb44847886386125dfdaf262e5b5507c802f31",
    "realize multispinor --spin-s 1 --strict-literal-table": "c14dad65d8e91ae297e07acbc12c8560099b790bcba16e6054880b6cace213da",
    "realize multispinor --spin-s -1": "2dab321206a15f964a55963ebc7f8ebb868532ab2c59aa8ebf52b3246dc63658",
    "realize multispinor --spin-s -1 --shift c": "2081ce5aafb8e22e50fe222a4b358c934e8053a896d43c5022feebd06223589e",
    "realize multispinor --spin-s -1 --lambda lam": "2dab321206a15f964a55963ebc7f8ebb868532ab2c59aa8ebf52b3246dc63658",
    "realize multispinor --spin-s -1 --shift 3/2 --lambda 1/2": "149b7c4b7063f21eda0ef8bc4bfb44847886386125dfdaf262e5b5507c802f31",
    "realize multispinor --spin-s -1 --strict-literal-table": "c14dad65d8e91ae297e07acbc12c8560099b790bcba16e6054880b6cace213da",
    "fieldcheck conservation": "b055620d5ea0de84db74eed99f24c2d530543a779dcaf367bcf90ca5ab4d6e1a",
    "fieldcheck conservation --variant literal": "dbf9462cec54cbec1ef1b7deec5c89f1de2631586b74cab7064ea15290b07353",
    "fieldcheck conservation --index 2 --spin-s -1": "2c0f7c33a0de5149145596a41c528e19301145b94c5fddfc7cfa982e207c8d88",
    "fieldcheck conservation --variant literal --index 1 --spin-s 1": "427994c4d59c2c1e84dec813ffc7fc0e6019d75630ad02a88bc6d95be40b716c",
    "fieldcheck boost": "8f50442d5dcfa609f63544f686a449b5901b5a70c91cee346b7ed215b7dda178",
    "fieldcheck rotation": "f4a86855d390c2168d4a5895efe1707a780e2db37834af609cc58b93c017fb5a",
    "fieldcheck multispinor-eqs --rank 1": "7b200b3163163b9f03889b851fbd4549e2e571b6e2b6880837697ed3024e428e",
    "fieldcheck multispinor-eqs --rank 2": "22ca4db4a86f6ba9511d173aee83ab5a09c772759c6b1dc3ba904d4b478264f0",
    "fieldcheck multispinor-eqs --rank 3": "32a5cb9d300c5c39d1de75483ec4eee9baba1e601f2ca7b600a56e7786cc883b",
    "fieldcheck multispinor-eqs --rank 4": "8272dcb4af4298e03faab368e832354ecee92a3af127527e8b0b460a41ff4613",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_is_byte_identical(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    code = main(command.split())
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN[command]


@pytest.mark.parametrize("command", list(GOLDEN))
def test_exit_status_is_the_reports_verdict(command, tmp_path, monkeypatch, capsys):
    """Exit 0 exactly when the report passed, written under its command's name."""
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    code = main(command.split())
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    assert path.name == payload["command"].replace(" ", "-") + ".json"
    assert (code == 0) == payload["passed"] and code in (0, 1)


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_byte_identical(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    main(command.split())
    out = capsys.readouterr().out
    text = "".join(line for line in out.splitlines(True)
                   if not line.startswith("report written: "))
    assert hashlib.sha256(text.encode()).hexdigest() == STDOUT[command]
