"""The byte-identity gate: the JSON that `omega enumerate` and `omega verify`
print must not change.  Each digest is the sha256 of the whole stdout of the
command, taken before the packed-word and stacked-elimination rewrite of the
oracle; a change that alters any answer, or only its formatting, fails here."""

import hashlib

import pytest

from omega.cli import main

# the criterion-02 enumeration list, then two simple versions (center and quotient)
ENUMERATE_DIGESTS = {
    "A(1,2)u": "e0672b6bcc6bd4321b77f41b2ed23c23c04152df2492427b490bfed1d698ab97",
    "A(1,3)u": "d23413aadae2647974324681ac16532c1d3a03ed2f47ffc271c93dfd1121629c",
    "A(1,4)u": "b454f0138d9f928afe5ceaf41e27814765ec6e86932239922f6f66518f5ec029",
    "A(1,5)u": "f8d5918b9e21f6b1869002c7ff1a4159569461749933c9a23a7da0c0c13717ec",
    "A(1,7)u": "8c73dc31dd3fab248bbe3c75be2e0fc6904371d9896c40fa8f3aeebb913fc152",
    "A(1,9)u": "50abb8a8978f8acddfef2b7083ba6a271564074d823d143a005231ef560eeba2",
    "A(2,2)u": "01854b25c9bd0d66279bae8568147faddb03ebd894073caab189380d52f25bdb",
    "A(2,3)u": "c8e7a184b4b3aeb1daa81d8b6fef58a20806949a3e052c9e2c011693ee41bea0",
    "A(2,4)u": "31e9021577e1c06455fc5714585d5fefaeffd58986b5af32ffe0108a04a4f3da",
    "C(2,2)u": "b56c199e7a9764c85008abddb1edd67ef9d4eea6ddfd341f4511d49b186ed559",
    "C(2,3)u": "2a91ee8813fd84934aced534666b0a0ab8fb7c9bdce0dda1ce17e909312704e0",
    "C(2,4)u": "be76bc4fd65457486f528c1f45865fc655b2ca3091d3b8de8bbc7adf5d704b82",
    "C(3,2)u": "f5dbc78af4e92d503a782651fd034ec05d486d1c7378cc97b7ee3ca350b113df",
    "2A(2,3)u": "0a107deaae1129a7981fa76e36a532649fec5cbbc18bccb42cd0600ecb79a257",
    "2A(3,2)u": "4c0ad6d34a98b75030c2785fb8a1cb0974da12ac462b05d3b23e73737dd9d095",
    "A(2,4)s": "031704f82881dabd81c2f67d34da3293e7f2605733c3cae7c1de75ed22f1a1d7",
    "C(2,3)s": "4dac62ab9f3f7177cd9f05993abf3bdebc30f43f518123a5b38b5576b1c7b845",
}
VERIFY_ALL_DIGEST = "1ded5b315344374fe904b861c7f4629b1feabc02c8fb42bebc02cc1ba130e566"


def _digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("spec", list(ENUMERATE_DIGESTS))
def test_enumerate_json_is_pinned(spec, capsys):
    assert _digest(capsys, ["enumerate", "--group", spec, "--json"]) == ENUMERATE_DIGESTS[spec]


def test_verify_all_json_is_pinned(capsys):
    assert _digest(capsys, ["verify", "--suite", "all", "--json"]) == VERIFY_ALL_DIGEST
